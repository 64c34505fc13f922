package repro.core

import repro.{SparkSpec, TestUtil}

/** A run finds its neighbor lists in MarkCore's job, over a k-d tree
  * broadcast for that job; `CellIndex.grid` and `box2d` find them in a job
  * of their own. ClusterCore's query counts depend on the order of each
  * list, so the two must agree entry for entry, and a run made of the phase
  * calls on a `grid`/`box2d` index (the sequence perfbench's `Replay` makes)
  * must give exactly what `DBSCAN.run` gives. */
class RunListsSpec extends SparkSpec {

  private def sameLists(got: Neighbors, want: Neighbors, clue: String): Unit = {
    assert(got.counts.toSeq === want.counts.toSeq, clue)
    assert(got.nbrs.toSeq === want.nbrs.toSeq, clue)
  }

  for (par <- 1 to 4) test(s"the lists MarkCore's job finds equal grid's and box2d's at p = $par") {
    val sc = spark.sparkContext
    for ((method, d) <- (1 to 4).map(GridCells -> _) :+ (BoxCells -> 2)) {
      val clue = s"$method d=$d"
      // Skewed: dense blobs and sparse noise, so list lengths vary widely.
      val pts = TestUtil.blobPts(1200, d, numBlobs = 3, sigma = 1.5, extent = 40.0, noiseFrac = 0.3,
        seed = 60L + 10 * d + par)
      val input = sc.parallelize(pts.toSeq, 4)
      val want = method match {
        case GridCells => CellIndex.grid(input, 1.5, d, par)
        case BoxCells  => CellIndex.box2d(input, 1.5, par)
      }
      val idx = CellIndex.cells(input, 1.5, d, method, par)
      assert(idx.lists == null && want.lists != null, clue)
      assert(want.lists.nbrs.nonEmpty && want.lists.counts.max > 1, clue)
      val bcIdx = sc.broadcast(idx)
      try {
        sameLists(MarkCore.withCtx(sc, bcIdx, 5, None, BcpGraph, par)._3, want.lists, clue)
        // What reads an index's own lists refuses a run's index on the driver.
        intercept[IllegalArgumentException](idx.neighbors(0))
        intercept[IllegalArgumentException](ClusterBorder.run(sc, bcIdx, null, null, 5, par))
        intercept[IllegalArgumentException](ClusterCore.run(sc, bcIdx, null, null, BcpGraph, false, par = par))
      } finally bcIdx.destroy()
    }
  }

  /** `DBSCAN.run`'s result from its public phase calls on a `grid`/`box2d`
    * index: MarkCore's flags-only `run`, `ConnCtx.build`, and the
    * ClusterCore and ClusterBorder adapters that read the index's lists. */
  private def replay(pts: Array[Pt], cfg: DBSCANConfig): DBSCANResult = {
    val sc = spark.sparkContext
    val par = sc.defaultParallelism
    val input = sc.parallelize(pts.toSeq, 4)
    val idx = cfg.cellMethod match {
      case GridCells => CellIndex.grid(input, cfg.eps, 2)
      case BoxCells  => CellIndex.box2d(input, cfg.eps)
    }
    Par.sharing(sc) { share =>
      val bcIdx = share(idx)
      val bcQt = cfg.coreMethod match {
        case QtCore   => Some(share(MarkCore.buildCellQuadTrees(sc, bcIdx, par)))
        case ScanCore => None
      }
      val flags = MarkCore.run(sc, bcIdx, cfg.minPts, bcQt, par)
      val bcFlags = share(flags)
      val bcCtx = share(ConnCtx.build(sc, bcIdx, bcFlags, cfg.graphMethod, par))
      val (comp, stats) = ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, cfg.graphMethod, cfg.bucketing,
        cfg.numBuckets, par)
      val border = ClusterBorder.run(sc, bcIdx, bcFlags, share(comp), cfg.minPts, par)
      val coreCluster = Array.fill(pts.length)(-1)
      for (c <- 0 until idx.numCells; p <- idx.start(c) until idx.start(c + 1) if flags(idx.ids(p)))
        coreCluster(idx.ids(p)) = comp(c)
      DBSCANResult(pts.length, flags, coreCluster, border, comp.maxOption.fold(0)(_ + 1),
        RunStats(0, 0, 0, 0, stats))
    }
  }

  test("the phase calls on a grid or box2d index give DBSCAN.run's result and graph stats") {
    val pts = TestUtil.blobPts(1500, 2, numBlobs = 3, sigma = 2.5, extent = 50.0, noiseFrac = 0.3, seed = 71L)
    for (cells <- Seq(GridCells, BoxCells);
         graph <- Seq(BcpGraph, QtGraph, UsecGraph, DelaunayGraph, ApproxGraph(0.01));
         bucketing <- Seq(false, true)) {
      val core = graph match { case QtGraph | ApproxGraph(_) => QtCore; case _ => ScanCore }
      val cfg = DBSCANConfig(1.5, 6, cells, core, graph, bucketing)
      withClue(s"$cells $core $graph bucketing=$bucketing: ") {
        val want = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 4), 2, cfg)
        val got = replay(pts, cfg)
        assert(want.stats.graph.numCoreCells > cfg.numBuckets && want.numNoise > 0)
        assert(got.stats.graph === want.stats.graph)
        assert(got.numClusters === want.numClusters)
        assert(got.isCore.toSeq === want.isCore.toSeq)
        assert(got.coreCluster.toSeq === want.coreCluster.toSeq)
        assert(got.borderClusters.map(_.toSeq).toSeq === want.borderClusters.map(_.toSeq).toSeq)
        assert(want.borderClusters.exists(_.nonEmpty))
      }
    }
  }
}
