package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerStageSubmitted}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, concat, lit, udf, when}
import org.apache.spark.sql.types.StringType
import org.apache.spark.storage.RDDBlockId
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

  /** runDF's output `out` as a result over dense ids; `denseOf` maps an
    * output id back to its dense id. */
  private def fromDF(out: DataFrame, n: Int)(denseOf: Any => Int): DBSCANResult = {
    val rows = new Array[(Boolean, Array[Int])](n)
    out.collect().foreach(r => rows(denseOf(r.get(0))) = (r.getBoolean(1), r.getSeq[Int](2).toArray))
    DBSCANResult(n, rows.map(_._1), rows.map(r => if (r._1) r._2(0) else -1),
      rows.map(r => if (r._1) Array.empty[Int] else r._2), rows.flatMap(_._2).distinct.length,
      RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
  }

  test("runDF clusters integer coordinate columns") {
    // Integer-valued coordinates, so the int columns hold them exactly.
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L).map(p => Pt(p.id, p.x.map(v => math.rint(v * 10))))
    val df = TestUtil.ptsDF(spark, pts).select(col("id"), col("x0").cast("int"), col("x1").cast("int"))
    val out = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig.exact(25, 8))
    TestUtil.assertSameClustering(fromDF(out, 200)(_.asInstanceOf[Long].toInt), NaiveDBSCAN.run(pts, 25, 8))
  }

  test("runDF returns a string id column as strings") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L)
    val df = TestUtil.ptsDF(spark, pts).withColumn("id", concat(lit("p"), col("id")))
    val out = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig.exact(2.5, 8))
    assert(out.schema("id").dataType === StringType)
    TestUtil.assertSameClustering(fromDF(out, 200)(_.asInstanceOf[String].tail.toInt),
      NaiveDBSCAN.run(pts, 2.5, 8))
  }

  test("runDF rejects a null coordinate or a null id, naming the row") {
    val df = TestUtil.ptsDF(spark, TestUtil.uniformPts(20, 2, 10.0, 18L))
    val cfg = DBSCANConfig.exact(2.5, 8)
    val noX = df.withColumn("x0", when(col("id") === 7, lit(null)).otherwise(col("x0")))
    val e = intercept[IllegalArgumentException](DBSCAN.runDF(spark, noX, Seq("x0", "x1"), cfg))
    assert(e.getMessage.contains("point 7 has a null coordinate"), e.getMessage)
    val noId = df.withColumn("id", when(col("id") === 3, lit(null)).otherwise(col("id")))
    val e2 = intercept[IllegalArgumentException](DBSCAN.runDF(spark, noId, Seq("x0", "x1"), cfg))
    assert(e2.getMessage.contains("null id"), e2.getMessage)
  }

  test("runDF computes the DataFrame once") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L)
    for (cells <- Seq(GridCells, BoxCells)) {
      val reads = spark.sparkContext.longAccumulator("runDF reads")
      val bump = udf { (x: Double) => reads.add(1); x }.asNondeterministic()
      val df = TestUtil.ptsDF(spark, pts).withColumn("x0", bump(col("x0")))
      val out = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig(2.5, 8, cellMethod = cells))
      assert(reads.value === 200, s"$cells")
      TestUtil.assertSameClustering(fromDF(out, 200)(_.asInstanceOf[Long].toInt), NaiveDBSCAN.run(pts, 2.5, 8))
    }
  }

  /** `body`'s result and the ids of the RDDs whose blocks it stored. */
  private def rddsStored[T](body: => T): (T, Set[Int]) = {
    val stored = scala.collection.mutable.Set[Int]() // listener-bus thread until drained
    val out = TestUtil.listening(spark.sparkContext)(_ => new SparkListener {
      override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = e.blockUpdatedInfo.blockId match {
        case RDDBlockId(rdd, _) if e.blockUpdatedInfo.storageLevel.isValid => stored += rdd
        case _ =>
      }
    })(body)
    (out, stored.toSet)
  }

  test("a box-cell runDF persists one RDD, and none of its own when the DataFrame is cached") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 17L)
    val want = NaiveDBSCAN.run(pts, 2.5, 8)
    val df = TestUtil.ptsDF(spark, pts)
    def run() = DBSCAN.runDF(spark, df, Seq("x0", "x1"), DBSCANConfig(2.5, 8, cellMethod = BoxCells))
    val (out, stored) = rddsStored(run())
    assert(stored.size === 1, s"stored blocks of RDDs ${stored.mkString(", ")}")
    TestUtil.assertSameClustering(fromDF(out, 200)(_.asInstanceOf[Long].toInt), want)
    df.cache()
    try {
      df.count()
      val (cachedOut, cachedStored) = rddsStored(run())
      assert(cachedStored.isEmpty, s"stored blocks of RDDs ${cachedStored.mkString(", ")}")
      TestUtil.assertSameClustering(fromDF(cachedOut, 200)(_.asInstanceOf[Long].toInt), want)
    } finally df.unpersist()
  }

  /** `body`'s result and the task count of every stage it ran. */
  private def stageTasks[T](body: => T): (T, Seq[Int]) = {
    val tasks = scala.collection.mutable.ArrayBuffer[Int]() // listener-bus thread until drained
    val out = TestUtil.listening(spark.sparkContext)(group => new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (TestUtil.jobGroup(e.properties) == group) tasks += e.stageInfo.numTasks
    })(body)
    (out, tasks.toSeq)
  }

  test("parallelism bounds the task count of every stage of a run") {
    val pts = TestUtil.blobPts(600, 2, 4, 2.0, 60.0, 0.2, 21L)
    val want = NaiveDBSCAN.run(pts, 3.0, 8)
    for (cells <- Seq(GridCells, BoxCells); core <- Seq(ScanCore, QtCore); p <- Seq(1, 2)) {
      val cfg = DBSCANConfig(3.0, 8, cells, core, bucketing = true, parallelism = p)
      val input = spark.sparkContext.parallelize(pts.toSeq, 8)
      val (res, tasks) = stageTasks(DBSCAN.run(spark, input, 2, cfg))
      TestUtil.assertSameClustering(res, want)
      assert(tasks.nonEmpty && tasks.forall(_ <= Par.parts(8, p)),
        s"$cells $core p=$p: stage task counts ${tasks.mkString(", ")}")
    }
  }

  test("parallelism bounds every stage at p = 3 and 4 when ClusterCore runs on the driver") {
    // The Delaunay cell graph has no ClusterCore job, so every stage runs
    // at most p tasks.
    val pts = TestUtil.blobPts(600, 2, 4, 2.0, 60.0, 0.2, 21L)
    val want = NaiveDBSCAN.run(pts, 3.0, 8)
    for (cells <- Seq(GridCells, BoxCells); core <- Seq(ScanCore, QtCore); p <- Seq(3, 4)) {
      val cfg = DBSCANConfig(3.0, 8, cells, core, DelaunayGraph, parallelism = p)
      val input = spark.sparkContext.parallelize(pts.toSeq, 8)
      val (res, tasks) = stageTasks(DBSCAN.run(spark, input, 2, cfg))
      TestUtil.assertSameClustering(res, want)
      assert(tasks.nonEmpty && tasks.forall(_ <= p),
        s"$cells $core p=$p: stage task counts ${tasks.mkString(", ")}")
    }
  }

  test("parallelism bounds every stage at p = 3 and 4 when ClusterCore runs in Spark") {
    // ClusterCore's rounds run one task per slice, at most p slices.
    val pts = TestUtil.blobPts(600, 2, 4, 2.0, 60.0, 0.2, 21L)
    val want = NaiveDBSCAN.run(pts, 3.0, 8)
    for (cells <- Seq(GridCells, BoxCells); core <- Seq(ScanCore, QtCore);
         bucketing <- Seq(false, true); p <- Seq(3, 4)) {
      val cfg = DBSCANConfig(3.0, 8, cells, core, BcpGraph, bucketing, parallelism = p)
      val input = spark.sparkContext.parallelize(pts.toSeq, 8)
      val (res, tasks) = stageTasks(DBSCAN.run(spark, input, 2, cfg))
      TestUtil.assertSameClustering(res, want)
      assert(tasks.nonEmpty && tasks.forall(_ <= Par.parts(8, p)),
        s"$cells $core bucketing=$bucketing p=$p: stage task counts ${tasks.mkString(", ")}")
    }
  }

  private def jobsOf[T](body: => T): (T, Int) = TestUtil.jobsOf(spark.sparkContext)(body)

  test("a run makes 3 jobs for every graph method, one more each with bucketing (not Delaunay), QtCore and box cells") {
    // Cells 1, MarkCore with the neighbor search and the connectivity
    // set-up 1, ClusterCore 1 per round, the last also running
    // ClusterBorder's per-point test; Delaunay builds its cell graph on the
    // driver and runs that test in a job of one round. QtCore builds its
    // cell quadtrees in a job, and box cells collect the coordinates for
    // their boundaries.
    val pts = TestUtil.blobPts(600, 2, 4, 2.0, 60.0, 0.2, 21L)
    val want = NaiveDBSCAN.run(pts, 3.0, 8)
    for (graph <- Seq(BcpGraph, UsecGraph, QtGraph, ApproxGraph(0.01), DelaunayGraph);
         cells <- Seq(GridCells, BoxCells); core <- Seq(ScanCore, QtCore); bucketing <- Seq(false, true)) {
      val cfg = DBSCANConfig(3.0, 8, cells, core, graph, bucketing)
      val (res, jobs) = jobsOf(DBSCAN.run(spark, rdd(pts), 2, cfg))
      val extra = Seq(bucketing && graph != DelaunayGraph, core == QtCore, cells == BoxCells).count(identity)
      assert(jobs === 3 + extra, s"$graph $cells $core bucketing=$bucketing")
      if (graph != ApproxGraph(0.01)) TestUtil.assertSameClustering(res, want)
    }
  }

  test("a run with no core point makes only the cell and MarkCore jobs and returns all noise") {
    // Points 10 apart with ε = 1: each point's ε-ball holds only itself.
    val pts = Array.tabulate(200)(i => Pt(i, Array(10.0 * (i % 20), 10.0 * (i / 20))))
    for (graph <- Seq(BcpGraph, UsecGraph, QtGraph, ApproxGraph(0.01), DelaunayGraph);
         cells <- Seq(GridCells, BoxCells); bucketing <- Seq(false, true)) {
      val clue = s"$graph $cells bucketing=$bucketing"
      val (res, jobs) = jobsOf(DBSCAN.run(spark, rdd(pts), 2, DBSCANConfig(1.0, 2, cells, ScanCore, graph, bucketing)))
      assert(jobs === (if (cells == BoxCells) 3 else 2), clue)
      assert(res.numCore === 0 && res.numClusters === 0, clue)
      assert(pts.indices.forall(res.isNoise), clue)
      assert(res.stats.graph.queriesRun === 0, clue)
    }
  }

  /** `body`'s result and the number of broadcasts it creates, less one
    * task binary per stage it submits. */
  private def broadcastsOf[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    def lastId() = { val b = sc.broadcast(0); b.destroy(); b.id } // the id of the latest broadcast
    val stages = new java.util.concurrent.atomic.AtomicInteger
    var ids = 0L
    val out = TestUtil.listening(sc)(group => new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        if (TestUtil.jobGroup(e.properties) == group) stages.incrementAndGet()
    }) {
      val before = lastId()
      val out = body
      ids = lastId() - before - 1
      out
    }
    (out, (ids - stages.get).toInt)
  }

  test("a run makes 3 broadcasts for every graph method, one more each with QtCore and box cells") {
    // The index, MarkCore's k-d tree over the cell boxes and MarkCore's
    // output (flags, context and lists as one value); QtCore's cell
    // quadtrees and box cells' boundaries add one each. A ClusterCore
    // round's union-find snapshot rides in its job's closure, so bucketing
    // adds none. With no core point, no round runs.
    val blobs = TestUtil.blobPts(600, 2, 4, 2.0, 60.0, 0.2, 21L)
    val sparse = Array.tabulate(200)(i => Pt(i, Array(10.0 * (i % 20), 10.0 * (i / 20))))
    for ((pts, eps, minPts) <- Seq((blobs, 3.0, 8), (sparse, 1.0, 2));
         graph <- Seq(BcpGraph, UsecGraph, QtGraph, ApproxGraph(0.01), DelaunayGraph);
         cells <- Seq(GridCells, BoxCells); core <- Seq(ScanCore, QtCore); bucketing <- Seq(false, true)) {
      val clue = s"${pts.length} points $graph $cells $core bucketing=$bucketing"
      val (res, made) = broadcastsOf(DBSCAN.run(spark, rdd(pts), 2, DBSCANConfig(eps, minPts, cells, core, graph,
        bucketing)))
      assert(made === 3 + Seq(core == QtCore, cells == BoxCells).count(identity), clue)
      assert((res.numClusters > 0) === (pts eq blobs), clue)
    }
  }

  test("a run's cells and clusters do not depend on whether its input is cached") {
    // Eight partitions merged into four: Spark's own coalescer groups cached
    // partitions by their blocks' locations, and cells and cluster ids are
    // numbered in the order of the merged partitions.
    val pts = TestUtil.blobPts(4000, 2, 12, 1.5, 120.0, 0.2, 23L)
    val input = spark.sparkContext.parallelize(pts.toSeq, 8)
    val cfg = DBSCANConfig(2.0, 6, parallelism = 4)
    def indexAndRun() = (CellIndex.grid(input, cfg.eps, 2, par = 4), DBSCAN.run(spark, input, 2, cfg))
    val (idx, res) = indexAndRun()
    assert(res.numClusters > 1)
    input.persist().count()
    try for (i <- 1 to 2) {
      val (cachedIdx, cached) = indexAndRun()
      withClue(s"cached run $i: ") {
        TestUtil.assertSameIndex(cachedIdx, idx)
        assert(cached.coreCluster.toSeq === res.coreCluster.toSeq)
        assert(cached.stats.graph === res.stats.graph)
      }
    } finally input.unpersist()
  }

  test("USEC and Delaunay reject d != 2 before any job runs") {
    val pts = TestUtil.blobPts(300, 3, 2, 2.0, 40.0, 0.1, 6L)
    for ((graph, name) <- Seq(UsecGraph -> "USEC", DelaunayGraph -> "Delaunay")) {
      val cfg = DBSCANConfig(4.0, 5, graphMethod = graph)
      val (e, jobs) = jobsOf(intercept[IllegalArgumentException](DBSCAN.run(spark, rdd(pts), 3, cfg)))
      assert(e.getMessage.contains(s"$name cell graph is 2D-only"), e.getMessage)
      assert(jobs === 0, name)
    }
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
