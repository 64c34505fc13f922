package repro.core

import repro.{Oracle, SparkSpec, TestUtil}

/** ClusterCore (paper Alg. 3): core-point clustering vs DuckDB's recursive
  * connected-components over the ε-graph, for every connectivity method. */
class ClusterCoreSpec extends SparkSpec {

  /** One run of the whole pipeline with cell graph `method`. */
  private def run(pts: Array[Pt], d: Int, eps: Double, minPts: Int, method: GraphMethod,
                  bucketing: Boolean, par: Int = 0): DBSCANResult =
    DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 4), d,
      DBSCANConfig(eps, minPts, graphMethod = method, bucketing = bucketing, parallelism = par))

  /** (id, rep) rows for the core points, where rep = the min core id of the
    * point's cluster. */
  private def coreClusters(res: DBSCANResult): org.apache.spark.sql.DataFrame = {
    val reps = TestUtil.clusterReps(res)
    val rows = (0 until res.n).filter(res.isCore).map(i => (i.toLong, reps(res.coreCluster(i))))
    spark.createDataFrame(rows).toDF("id", "rep")
  }

  private val methods: Seq[(String, GraphMethod, Int => Boolean)] = Seq(
    ("bcp", BcpGraph, (_: Int) => true),
    ("qt", QtGraph, (_: Int) => true),
    ("usec", UsecGraph, (d: Int) => d == 2),
    ("delaunay", DelaunayGraph, (d: Int) => d == 2),
  )

  for {
    d <- Seq(2, 3)
    (name, method, ok) <- methods
    if ok(d)
    bucketing <- Seq(false, true)
    seed <- Seq(1L, 2L)
  } test(s"core clustering matches SQL components d=$d method=$name bucketing=$bucketing seed=$seed") {
    val pts = TestUtil.blobPts(350, d, numBlobs = 4, sigma = 2.5, extent = 40.0,
      noiseFrac = 0.25, seed = seed * 31 + d)
    val eps = 2.5; val minPts = 8
    val df = coreClusters(run(pts, d, eps, minPts, method, bucketing))
    val sql = TestUtil.sqlDbscanPrelude(d, eps, minPts) + "SELECT id, rep FROM comp"
    Oracle.assertEquivalent(df, sql, "pts" -> TestUtil.ptsDF(spark, pts))
  }

  test("bucketing prunes connectivity queries on skewed data") {
    // One huge dense clump spread over several adjacent cells + satellites:
    // with bucketing, the big cells union first and prune later queries.
    val pts = TestUtil.blobPts(3000, 2, numBlobs = 1, sigma = 4.0, extent = 20.0,
      noiseFrac = 0.0, seed = 17L)
    val eps = 3.0; val minPts = 5
    val res = run(pts, 2, eps, minPts, BcpGraph, bucketing = false)
    val without = res.stats.graph
    val withB = run(pts, 2, eps, minPts, BcpGraph, bucketing = true).stats.graph
    assert(withB.candidatePairs === without.candidatePairs)
    // Each unordered pair of neighboring core cells has exactly one owner.
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 4), eps, 2)
    val core = (0 until idx.numCells).map(c => (idx.start(c) until idx.start(c + 1)).exists(p => res.isCore(idx.ids(p))))
    val corePairs = (for {
      a <- 0 until idx.numCells if core(a)
      b <- 0 until a if core(b)
      if BBox.sqDistBetween(idx.cellLo, idx.cellHi, a * 2, idx.cellLo, idx.cellHi, b * 2, 2) <= eps * eps
    } yield 1L).sum
    assert(without.candidatePairs === corePairs)
    assert(withB.queriesRun < without.queriesRun,
      s"bucketing should prune: ${withB.queriesRun} vs ${without.queriesRun}")
  }

  test("one task prunes queries against the links it found, also without bucketing") {
    // The skewed data above; at parallelism 1 one task walks the whole size
    // order in its one round.
    val pts = TestUtil.blobPts(3000, 2, numBlobs = 1, sigma = 4.0, extent = 20.0,
      noiseFrac = 0.0, seed = 17L)
    val g = run(pts, 2, 3.0, 5, BcpGraph, bucketing = false, par = 1).stats.graph
    assert(g.queriesRun < g.candidatePairs,
      s"a task should prune: ${g.queriesRun} queries of ${g.candidatePairs} candidates")
  }

  test("bucketing never runs more queries than the plain run, at any parallelism") {
    // The skewed data above. Each owner sits at the same place in the same
    // task with and without bucketing, and bucketing adds the links every
    // task found in earlier rounds, so it can only prune more. At p = 5
    // and 7 the tasks' ranges differ in length.
    val pts = TestUtil.blobPts(3000, 2, numBlobs = 1, sigma = 4.0, extent = 20.0,
      noiseFrac = 0.0, seed = 17L)
    for (par <- Seq(1, 2, 3, 4, 5, 7)) {
      val plain = run(pts, 2, 3.0, 5, BcpGraph, bucketing = false, par = par).stats.graph
      val bucketed = run(pts, 2, 3.0, 5, BcpGraph, bucketing = true, par = par).stats.graph
      assert(bucketed.candidatePairs === plain.candidatePairs, s"par=$par")
      assert(bucketed.queriesRun <= plain.queriesRun,
        s"par=$par: bucketed ${bucketed.queriesRun} vs plain ${plain.queriesRun}")
      if (par >= 2 && par <= 4) assert(bucketed.queriesRun < plain.queriesRun,
        s"par=$par: bucketing should prune: ${bucketed.queriesRun} vs ${plain.queriesRun}")
    }
  }

  test("the clustering does not depend on how owners are split into tasks") {
    // Pruning depends on which owners share a task, so the counters
    // change with the parallelism; the clustering must not.
    val pts = TestUtil.blobPts(2500, 2, numBlobs = 6, sigma = 2.0, extent = 60.0,
      noiseFrac = 0.2, seed = 29L)
    val eps = 1.5; val minPts = 6
    val want = repro.baselines.NaiveDBSCAN.run(pts, eps, minPts)
    assert(want.numClusters > 1)
    for (method <- Seq(BcpGraph, QtGraph); bucketing <- Seq(false, true); par <- 1 to 4) {
      withClue(s"method=$method bucketing=$bucketing par=$par: ") {
        TestUtil.assertSameClustering(run(pts, 2, eps, minPts, method, bucketing, par), want)
      }
    }
  }

  test("approximate graph connects everything within eps and nothing beyond eps(1+rho)") {
    val pts = TestUtil.blobPts(400, 2, numBlobs = 3, sigma = 1.5, extent = 50.0,
      noiseFrac = 0.1, seed = 23L)
    val eps = 2.0; val minPts = 5; val rho = 0.05
    val res = run(pts, 2, eps, minPts, ApproxGraph(rho), bucketing = false)
    TestUtil.assertApproxValid(pts, res, eps, minPts, rho)
  }
}
