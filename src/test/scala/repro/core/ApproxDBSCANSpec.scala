package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.NaiveDBSCAN

/** ρ-approximate DBSCAN (Gan & Tao's definition): validity is the sandwich
  * property checked by [[TestUtil.assertApproxValid]] — core points within ε
  * must share a cluster, core points farther than ε(1+ρ) in the connectivity
  * graph must not be merged beyond the ε(1+ρ) components, and core flags are
  * exact. */
class ApproxDBSCANSpec extends SparkSpec {

  private def rdd(pts: Array[Pt]) = spark.sparkContext.parallelize(pts.toSeq, 4)

  for {
    d <- Seq(2, 3, 5)
    rho <- Seq(0.01, 0.1, 1.0)
    qtCore <- Seq(false, true)
    seed <- Seq(1L, 2L)
  } test(s"approx DBSCAN is rho-valid d=$d rho=$rho qtCore=$qtCore seed=$seed") {
    val pts = TestUtil.blobPts(350, d, 4, 2.0, 35.0, 0.25, seed * 13 + d)
    val eps = 2.5; val minPts = 8
    val cfg = if (qtCore) DBSCANConfig.approxQt(eps, minPts, rho)
              else DBSCANConfig.approx(eps, minPts, rho)
    val res = DBSCAN.run(spark, rdd(pts), d, cfg)
    TestUtil.assertApproxValid(pts, res, eps, minPts, rho)
  }

  for (seed <- Seq(5L, 6L)) test(s"approx with well-separated clusters equals exact (seed=$seed)") {
    // Clusters far apart relative to eps(1+rho): the relaxation cannot
    // change anything, so the approximate answer must equal exact DBSCAN.
    val pts = TestUtil.blobPts(300, 2, 3, 1.0, 200.0, 0.0, seed)
    val eps = 3.0; val minPts = 5; val rho = 0.01
    val res = DBSCAN.run(spark, rdd(pts), 2, DBSCANConfig.approx(eps, minPts, rho))
    TestUtil.assertSameClustering(res, NaiveDBSCAN.run(pts, eps, minPts))
  }

  test("approx with bucketing is also valid") {
    val pts = TestUtil.blobPts(400, 3, 3, 2.0, 30.0, 0.2, 9L)
    val res = DBSCAN.run(spark, rdd(pts), 3,
      DBSCANConfig.approx(2.5, 8, 0.1).copy(bucketing = true))
    TestUtil.assertApproxValid(pts, res, 2.5, 8, 0.1)
  }
}
