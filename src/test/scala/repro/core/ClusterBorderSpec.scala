package repro.core

import repro.{Oracle, SparkSpec, TestUtil}
import repro.baselines.{HpDbscan, NaiveDBSCAN, PdsDbscan}

/** ClusterBorder (paper Alg. 4): border membership vs the DuckDB definition
  * — every cluster containing a core point within ε of the border point. */
class ClusterBorderSpec extends SparkSpec {

  for {
    d <- Seq(2, 3)
    (eps, minPts) <- Seq((2.0, 8), (3.0, 15))
    seed <- Seq(3L, 4L)
  } test(s"border membership matches SQL d=$d eps=$eps minPts=$minPts seed=$seed") {
    val pts = TestUtil.blobPts(400, d, numBlobs = 3, sigma = 2.0, extent = 35.0,
      noiseFrac = 0.3, seed = seed * 101 + d)
    val res = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 4), d,
      DBSCANConfig(eps, minPts))
    // All memberships — core points and border points — against full SQL DBSCAN.
    val sql = TestUtil.sqlDbscanPrelude(d, eps, minPts) +
      """SELECT id, rep FROM comp
        |UNION
        |SELECT DISTINCT d.a AS id, c.rep
        |FROM dist2 d JOIN comp c ON c.id = d.b
        |WHERE d.a NOT IN (SELECT id FROM core)""".stripMargin
    Oracle.assertEquivalent(TestUtil.membershipDF(spark, res), sql,
      "pts" -> TestUtil.ptsDF(spark, pts))
  }

  test("a border point between two clusters belongs to both") {
    // Two 10-point chains (spacing 0.1) with a single point equidistant from
    // both chain ends: it sees only 3 points in its ε-ball (not core at
    // minPts=4) but is within ε of a core point of each chain.
    val left = (0 until 10).map(i => Pt(i, Array(i * 0.1, 0.0)))
    val right = (0 until 10).map(i => Pt(10 + i, Array(1.9 + i * 0.1, 0.0)))
    val mid = Pt(20, Array(1.4, 0.0))
    val pts = (left ++ right :+ mid).toArray
    val eps = 0.5; val minPts = 4
    // With 2 slabs, the mid point's core neighbors (x = 0.9 and 1.9) are
    // owned by different slabs: the cluster of the one in its slab's halo
    // comes from the other slab's summary, merged on the driver.
    val runs = Seq[(String, () => DBSCANResult)](
      "DBSCAN" -> (() => DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), 2,
        DBSCANConfig(eps, minPts)))) ++
      Seq(1, 3).map(p => s"PdsDbscan par=$p" -> (() => PdsDbscan.run(spark, pts, eps, minPts, par = p))) ++
      Seq(1, 2, 3).map(s => s"HpDbscan slabs=$s" -> (() => HpDbscan.run(spark, pts, eps, minPts, numSlabs0 = s)))
    for ((name, run) <- runs) withClue(s"$name: ") {
      val res = run()
      assert(res.numClusters === 2)
      assert(!res.isCore(20))
      assert(res.borderClusters(20).length === 2, "mid point should border both clusters")
    }
  }

  /** The ids of the points the border pass reports, one per report, from
    * the phase calls `DBSCAN.run` makes. */
  private def reported(pts: Array[Pt], d: Int, cfg: DBSCANConfig): Seq[Int] = {
    val sc = spark.sparkContext
    val idx = CellIndex.cells(sc.parallelize(pts.toSeq, 4), cfg.eps, d, cfg.cellMethod, cfg.parallelism)
    Par.sharing(sc) { share =>
      val bcIdx = share(idx)
      val bcQt = cfg.coreMethod match {
        case QtCore   => Some(share(MarkCore.buildCellQuadTrees(sc, bcIdx, cfg.parallelism)))
        case ScanCore => None
      }
      val marked @ (flags, _, lists) = MarkCore.withCtx(sc, bcIdx, cfg.minPts, bcQt, cfg.graphMethod, cfg.parallelism)
      val (_, _, hits) = ClusterCore.run(sc, bcIdx, share(marked), cfg.graphMethod, cfg.bucketing,
        cfg.numBuckets, ClusterBorder.cells(idx, flags, lists), cfg.parallelism)
      hits.toSeq.flatMap(_._1.toSeq)
    }
  }

  test("border points carry the sorted distinct clusters of their core points within eps") {
    // Many small, close clusters, so points border two or more of them.
    for ((d, extent) <- Seq(2 -> 12.0, 3 -> 6.0)) {
      val pts = TestUtil.blobPts(1500, d, numBlobs = 40, sigma = 0.8, extent = extent,
        noiseFrac = 0.3, seed = 17L + d)
      val (eps, minPts) = (0.6, 9)
      val graphs = Seq(BcpGraph, QtGraph, ApproxGraph(0.01)) ++ (if (d == 2) Seq(UsecGraph, DelaunayGraph) else Nil)
      for (graph <- graphs; bucketing <- Seq(false, true); par <- 1 to 4) {
        val clue = s"d=$d $graph bucketing=$bucketing p=$par"
        val coreMethod = graph match { case QtGraph | ApproxGraph(_) => QtCore; case _ => ScanCore }
        val cfg = DBSCANConfig(eps, minPts, GridCells, coreMethod, graph, bucketing, par)
        val res = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 4), d, cfg)
        val core = pts.filter(p => res.isCore(p.id.toInt))
        var multi = 0
        for (p <- pts if !res.isCore(p.id.toInt)) {
          val want = core.filter(q => Dist.leq(p.x, q.x, eps)).map(q => res.coreCluster(q.id.toInt)).distinct.sorted
          assert(res.borderClusters(p.id.toInt).toSeq === want.toSeq, s"$clue point ${p.id}")
          if (want.length > 1) multi += 1
        }
        assert(multi >= 5, s"$clue: $multi points border several clusters")
        // With R = 2 rounds, the border pass still reports each point once.
        if (bucketing && graph != DelaunayGraph) {
          assert(res.stats.graph.numCoreCells > 2 * par, clue)
          val ids = reported(pts, d, cfg)
          assert(ids.sorted === pts.indices.filter(res.borderClusters(_).nonEmpty), clue)
        }
      }
    }
  }

  test("the border pass skips the cells of non-core points that reach no core cell") {
    // A 10 x 10 lattice of core points, a border point alone in a cell next
    // to it, and far off a small group of points too few to hold a core
    // point: their cells and all their neighbors hold no core point.
    val lattice = for (i <- 0 until 10; j <- 0 until 10) yield Array(0.1 * i, 0.1 * j)
    val far = (0 until 5).map(i => Array(50.0 + 0.1 * i, 50.0))
    val pts = (lattice ++ Seq(Array(1.85, 0.5)) ++ far).zipWithIndex.map { case (x, i) => Pt(i, x) }.toArray
    val (borderPt, farPts) = (100, 101 until 106)
    val (eps, minPts) = (1.0, 20)
    val sc = spark.sparkContext
    val idx = CellIndex.cells(sc.parallelize(pts.toSeq, 4), eps, 2, GridCells, 0)
    val bcIdx = sc.broadcast(idx)
    val (flags, _, lists) = try MarkCore.withCtx(sc, bcIdx, minPts, None, BcpGraph) finally bcIdx.destroy()
    val cellOf = TestUtil.cellOf(idx)
    val border = ClusterBorder.cells(idx, flags, lists)
    assert(border.toSeq === Seq(cellOf(borderPt)))
    assert(farPts.forall(p => !flags(p)) && (0 until 100).forall(flags(_)) && !flags(borderPt))
    val res = DBSCAN.run(spark, sc.parallelize(pts.toSeq, 4), 2, DBSCANConfig(eps, minPts))
    TestUtil.assertSameClustering(res, NaiveDBSCAN.run(pts, eps, minPts))
    assert(res.borderClusters(borderPt).length === 1 && farPts.forall(res.isNoise))
  }

  test("noise points get no clusters") {
    val clump = (0 until 20).map(i => Pt(i, Array(0.0 + i * 1e-3, 0.0)))
    val far = Pt(20, Array(100.0, 100.0))
    val pts = (clump :+ far).toArray
    val res = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), 2,
      DBSCANConfig(1.0, 5))
    assert(res.isNoise(20))
    assert(res.numClusters === 1)
  }
}
