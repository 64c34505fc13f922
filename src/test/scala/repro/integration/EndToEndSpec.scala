package repro.integration

import repro.{SparkSpec, TestUtil}
import repro.baselines.{HpDbscan, NaiveDBSCAN, PdsDbscan}
import repro.core._
import repro.data.SpatialData

/** Medium-scale integration: all methods agree on a realistic seed-spreader
  * workload; cluster structure matches the generator's ground truth shape. */
class EndToEndSpec extends SparkSpec {

  private lazy val pts = TestUtil.collect(
    SpatialData.seedSpreader(spark, 20000, 3, numRestarts = 8, noiseFrac = 0.001, seed = 99))
  private lazy val rdd = spark.sparkContext.parallelize(pts.toSeq, 16)
  private val eps = 300.0
  private val minPts = 50

  private lazy val reference = NaiveDBSCAN.run(pts, eps, minPts)

  test("seed spreader produces a meaningful clustering at default parameters") {
    assert(reference.numClusters >= 4 && reference.numClusters <= 12,
      s"got ${reference.numClusters} clusters")
    assert(reference.numCore > 15000, s"core count ${reference.numCore}")
  }

  for ((name, cfg) <- Seq(
    ("our-exact", DBSCANConfig.exact(eps, minPts)),
    ("our-exact-bucketing", DBSCANConfig.exact(eps, minPts).copy(bucketing = true)),
    ("our-exact-qt", DBSCANConfig.exactQt(eps, minPts)),
  )) test(s"$name matches the reference at 20k points") {
    TestUtil.assertSameClustering(DBSCAN.run(spark, rdd, 3, cfg), reference)
  }

  test("pdsdbscan and hpdbscan match the reference at 20k points") {
    TestUtil.assertSameClustering(PdsDbscan.run(spark, pts, eps, minPts), reference)
    TestUtil.assertSameClustering(HpDbscan.run(spark, pts, eps, minPts), reference)
  }

  test("approximate variants are valid and close to exact") {
    val res = DBSCAN.run(spark, rdd, 3, DBSCANConfig.approx(eps, minPts, 0.01))
    assert(res.isCore.toSeq === reference.isCore.toSeq)
    // With rho = 0.01 on well-separated clusters the clustering is identical.
    assert(res.numClusters === reference.numClusters)
  }

  test("2D pipeline at 20k points: all six variants agree") {
    val pts2 = TestUtil.collect(
      SpatialData.seedSpreader(spark, 20000, 2, numRestarts = 8, noiseFrac = 0.001, seed = 77))
    val rdd2 = spark.sparkContext.parallelize(pts2.toSeq, 16)
    val ref = NaiveDBSCAN.run(pts2, eps, minPts)
    for {
      cells <- Seq(GridCells, BoxCells)
      graph <- Seq(BcpGraph, UsecGraph, DelaunayGraph)
    } {
      val got = DBSCAN.run(spark, rdd2, 2,
        DBSCANConfig(eps, minPts, cellMethod = cells, graphMethod = graph))
      TestUtil.assertSameClustering(got, ref)
    }
  }

  test("phase timings are recorded") {
    val res = DBSCAN.run(spark, rdd, 3, DBSCANConfig.exact(eps, minPts))
    assert(res.stats.totalMs > 0)
    assert(res.stats.graph.numCoreCells > 0)
    assert(res.stats.graph.numCoreCells <= res.stats.graph.numCells)
  }
}
