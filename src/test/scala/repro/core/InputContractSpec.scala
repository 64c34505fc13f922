package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.{HpDbscan, NaiveDBSCAN, PdsDbscan, RpDbscan}

/** Input the pipeline cannot cluster correctly must be rejected up front with
  * a message naming the offending point or parameter, never clustered wrongly
  * or crashed deep inside a phase. */
class InputContractSpec extends SparkSpec {

  private def run(pts: Seq[Pt], d: Int): DBSCANResult =
    DBSCAN.run(spark, spark.sparkContext.parallelize(pts, 2), d, DBSCANConfig.exact(2.0, 3))

  /** Messages of `e` and its causes: a check that fails inside a Spark task
    * reaches the driver wrapped in a `SparkException`. */
  private def messages(e: Throwable): String =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")

  private def withPoint7(x: Array[Double]): Seq[Pt] =
    TestUtil.uniformPts(20, 2, 10.0, 3L).toSeq.map(p => if (p.id == 7) Pt(7, x) else p)

  test("a point with a NaN or infinite coordinate is rejected by id") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[Exception](run(withPoint7(Array(1.0, bad)), 2))
      assert(messages(e).contains("point 7 "), messages(e))
    }
  }

  test("a point whose coordinate count is not d is rejected by id") {
    for (x <- Seq(Array(1.0, 2.0, 3.0), Array(1.0))) {
      val e = intercept[Exception](run(withPoint7(x), 2))
      assert(messages(e).contains("point 7 "), messages(e))
    }
  }

  test("coordinates beyond the Int range of grid cells are rejected, not merged into one cell") {
    // Cell keys used to saturate at Int.MaxValue: both groups landed in one
    // cell and became 6 core points of 1 cluster (the correct answer is 0, 0).
    val pts = Seq(2e9, 2e9, 2e9, 3e9, 3e9, 3e9).zipWithIndex.map { case (x, i) => Pt(i, Array(x)) }
    val e = intercept[Exception](
      DBSCAN.run(spark, spark.sparkContext.parallelize(pts, 2), 1, DBSCANConfig.exact(1.0, 4)))
    assert(messages(e).contains("out of the grid's Int range"), messages(e))
  }

  test("quadtree variants reject d > 32 naming d") {
    val pts = TestUtil.uniformPts(50, 33, 10.0, 4L).toSeq
    val e = intercept[Exception](
      DBSCAN.run(spark, spark.sparkContext.parallelize(pts, 2), 33, DBSCANConfig.exactQt(2.0, 3)))
    assert(messages(e).contains("d = 33"), messages(e))
  }

  test("ids that are not dense in [0, n) are rejected naming the first bad id") {
    val pts = Seq(0L, 1L, 5L).map(i => Pt(i, Array(i.toDouble, 0.0)))
    val e = intercept[IllegalArgumentException](run(pts, 2))
    assert(e.getMessage.contains("point id 5"))
  }

  test("duplicate ids are rejected naming the repeated id") {
    val pts = Seq(0L, 1L, 1L).map(i => Pt(i, Array(i.toDouble, 0.0)))
    val e = intercept[IllegalArgumentException](run(pts, 2))
    assert(e.getMessage.contains("point id 1"))
  }

  /** (name, run on (points, ε, minPts)) of each baseline, on 2D input. */
  private val baselines: Seq[(String, (Array[Pt], Double, Int) => DBSCANResult)] = Seq(
    "NaiveDBSCAN" -> ((pts, e, m) => NaiveDBSCAN.run(pts, e, m)),
    "PdsDbscan" -> ((pts, e, m) => PdsDbscan.run(spark, pts, e, m)),
    "HpDbscan" -> ((pts, e, m) => HpDbscan.run(spark, pts, e, m)),
    "RpDbscan" -> ((pts, e, m) => RpDbscan.run(spark, spark.sparkContext.parallelize(pts.toSeq, 2), 2, e, m)))

  // The last id set wraps to the missing id 2 under `toInt`.
  for ((name, run) <- baselines; (ids, bad) <- Seq(
      (Seq(0L, 1L, 5L), 5L), (Seq(0L, 1L, 1L), 1L), (Seq(0L, 1L, (1L << 32) + 2), (1L << 32) + 2)))
    test(s"$name rejects ids ${ids.mkString("{", ", ", "}")} naming id $bad") {
      val pts = ids.zipWithIndex.map { case (id, i) => Pt(id, Array(i.toDouble, 0.0)) }.toArray
      val e = intercept[IllegalArgumentException](run(pts, 2.0, 3))
      assert(e.getMessage.contains(s"point id $bad:"), e.getMessage)
    }

  // DBSCAN.run rejects these points (tests above); a baseline used to
  // cluster them wrongly, or fail without naming the point.
  for ((name, run) <- baselines; (what, x) <- Seq(
      "a NaN" -> Array(1.0, Double.NaN), "an infinite" -> Array(Double.PositiveInfinity, 1.0),
      "a 3-coordinate" -> Array(1.0, 2.0, 3.0), "a 1-coordinate" -> Array(1.0)))
    test(s"$name rejects $what point 7 by id") {
      val e = intercept[Exception](run(withPoint7(x).toArray, 2.0, 3))
      assert(messages(e).contains("point 7 "), messages(e))
    }

  for ((name, run) <- baselines; (eps, minPts) <- Seq(
      (0.0, 3), (-1.0, 3), (Double.NaN, 3), (Double.PositiveInfinity, 3), (2.0, 0)))
    test(s"$name rejects eps=$eps minPts=$minPts like DBSCANConfig") {
      val want = intercept[IllegalArgumentException](DBSCANConfig(eps, minPts)).getMessage
      val e = intercept[IllegalArgumentException](run(TestUtil.uniformPts(20, 2, 10.0, 3L), eps, minPts))
      assert(e.getMessage === want)
    }

  test("eps must be finite and positive") {
    for (eps <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity))
      intercept[IllegalArgumentException](DBSCANConfig(eps, 5))
  }

  test("rho must be finite and non-negative, naming rho") {
    for (rho <- Seq(-1.0, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](DBSCANConfig.approx(2.0, 3, rho))
      assert(e.getMessage.contains(s"rho must be finite and >= 0, got $rho"), e.getMessage)
    }
  }

  test("minPts must be at least 1") {
    intercept[IllegalArgumentException](DBSCANConfig(1.0, 0))
  }
}
