package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.NaiveDBSCAN

/** End-to-end DBSCAN: every exact variant must reproduce the sequential
  * reference exactly (same core flags, same clusters up to relabeling, same
  * border membership sets) across datasets, dimensions and parameters. */
class DBSCANSpec extends SparkSpec {

  private def rdd(pts: Array[Pt]) = spark.sparkContext.parallelize(pts.toSeq, 4)

  private val exactConfigs: Seq[(String, (Double, Int) => DBSCANConfig)] = Seq(
    ("our-exact", (e, m) => DBSCANConfig.exact(e, m)),
    ("our-exact-bucketing", (e, m) => DBSCANConfig.exact(e, m).copy(bucketing = true)),
    ("our-exact-qt", (e, m) => DBSCANConfig.exactQt(e, m)),
    ("our-exact-qt-bucketing", (e, m) => DBSCANConfig.exactQt(e, m).copy(bucketing = true)),
  )

  for {
    d <- Seq(2, 3, 5)
    (dataName, mk) <- Seq(
      ("uniform", (s: Long) => TestUtil.uniformPts(300, d, 25.0, s)),
      ("blobs", (s: Long) => TestUtil.blobPts(400, d, 4, 2.0, 40.0, 0.2, s)),
    )
    (eps, minPts) <- Seq((2.5, 5), (4.0, 15))
    (cfgName, cfg) <- exactConfigs
    seed <- Seq(1L)
  } test(s"$cfgName == naive on $dataName d=$d eps=$eps minPts=$minPts") {
    val pts = mk(seed * 7 + d)
    val got = DBSCAN.run(spark, rdd(pts), d, cfg(eps, minPts))
    val want = NaiveDBSCAN.run(pts, eps, minPts)
    TestUtil.assertSameClustering(got, want)
  }

  for {
    (cfgName, method) <- Seq(("grid-bcp", BcpGraph), ("grid-usec", UsecGraph),
      ("grid-delaunay", DelaunayGraph))
    cells <- Seq(GridCells, BoxCells)
    seed <- Seq(2L, 3L)
  } test(s"2D $cfgName with $cells == naive (seed=$seed)") {
    val pts = TestUtil.blobPts(500, 2, 5, 2.5, 45.0, 0.2, seed)
    val eps = 2.2; val minPts = 10
    val got = DBSCAN.run(spark, rdd(pts), 2,
      DBSCANConfig(eps, minPts, cellMethod = cells, graphMethod = method))
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, eps, minPts))
  }

  test("7-dimensional exact DBSCAN matches naive") {
    val pts = TestUtil.blobPts(300, 7, 3, 2.0, 25.0, 0.2, 11L)
    val eps = 4.0; val minPts = 10
    val got = DBSCAN.run(spark, rdd(pts), 7, DBSCANConfig.exact(eps, minPts))
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, eps, minPts))
  }

  test("degenerate: all points in a single cell become one cluster (TeraClickLog path)") {
    val pts = TestUtil.uniformPts(200, 13, 10.0, 13L)
    // eps large enough that the whole domain is one cell.
    val got = DBSCAN.run(spark, rdd(pts), 13, DBSCANConfig.exact(500.0, 100))
    assert(got.numClusters === 1)
    assert(got.isCore.forall(identity))
    assert(got.stats.graph.numCells === 1)
  }

  test("minPts larger than n yields all noise") {
    val pts = TestUtil.uniformPts(50, 2, 10.0, 14L)
    val got = DBSCAN.run(spark, rdd(pts), 2, DBSCANConfig.exact(2.0, 1000))
    assert(got.numClusters === 0)
    assert((0 until 50).forall(got.isNoise))
  }

  test("eps spanning the whole dataset yields one cluster") {
    val pts = TestUtil.uniformPts(100, 2, 10.0, 15L)
    val got = DBSCAN.run(spark, rdd(pts), 2, DBSCANConfig.exact(100.0, 5))
    assert(got.numClusters === 1)
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, 100.0, 5))
  }

  test("result is independent of input partitioning") {
    val pts = TestUtil.blobPts(400, 3, 4, 2.0, 40.0, 0.2, 16L)
    val a = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 1), 3,
      DBSCANConfig.exact(2.5, 8))
    val b = DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 13), 3,
      DBSCANConfig.exact(2.5, 8))
    TestUtil.assertSameClustering(a, b)
  }

  test("runDF DataFrame wrapper round-trips") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L)
    val df = TestUtil.ptsDF(spark, pts)
    val out = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig.exact(2.5, 8))
    assert(out.count() === 200)
    val want = NaiveDBSCAN.run(pts, 2.5, 8)
    val gotCore = out.filter("is_core").select("id").collect().map(_.getLong(0)).toSet
    assert(gotCore === (0 until 200).filter(want.isCore(_)).map(_.toLong).toSet)
  }

  test("runDF accepts any unique id column and returns each row under its id") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L)
    // Caller ids 1000, 1003, ... assigned in a shuffled order.
    val perm = new scala.util.Random(5).shuffle((0 until 200).toVector)
    val callerId = (i: Int) => 1000L + 3 * perm(i)
    val df = TestUtil.ptsDF(spark, pts.map(p => Pt(callerId(p.id.toInt), p.x)))
    val out = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig.exact(2.5, 8))
      .collect().map(r => r.getLong(0) -> (r.getBoolean(1), r.getSeq[Int](2).toArray)).toMap
    assert(out.size === 200)
    val rows = Array.tabulate(200)(i => out(callerId(i)))
    val got = DBSCANResult(200, rows.map(_._1), rows.map(r => if (r._1) r._2(0) else -1),
      rows.map(r => if (r._1) Array.empty[Int] else r._2), rows.flatMap(_._2).distinct.length,
      RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, 2.5, 8))
  }

  test("runDF rejects a duplicate id naming it") {
    val pts = TestUtil.uniformPts(20, 2, 10.0, 18L).map(p => if (p.id == 9) Pt(4, p.x) else p)
    val e = intercept[IllegalArgumentException](
      DBSCAN.runDF(spark, TestUtil.ptsDF(spark, pts), Seq("x0", "x1"), DBSCANConfig.exact(2.5, 8)))
    assert(e.getMessage.contains("duplicate id 4"), e.getMessage)
  }

  test("every registered variant name round-trips through named and name") {
    for ((n, _) <- DBSCANConfig.variants) {
      val cfg = DBSCANConfig.named(n, 2.5, 8, 0.1).get
      assert(DBSCANConfig.named(cfg.name, 2.5, 8, 0.1) === Some(cfg), n)
      assert(cfg.copy(parallelism = 3).name === cfg.name)
    }
    // `our-2d-grid-bcp` is our-exact's config, so it reads back as our-exact.
    assert(DBSCANConfig.named("our-2d-grid-bcp", 2.5, 8, 0.1).get.name === "our-exact")
    assert(DBSCANConfig.exact(20, 100).copy(bucketing = true).name === "our-exact-bucketing")
    assert(DBSCANConfig(20, 100, GridCells, ScanCore, UsecGraph).name === "our-2d-grid-usec")
    assert(DBSCANConfig.named("bogus", 2.5, 8, 0.1) === None)
  }
}
