package repro.experiments

import repro.SparkSpec

/** The experiment registry and its command line, and one experiment run end
  * to end at a tiny scale. */
class SweepsSpec extends SparkSpec {

  test("every paper experiment is registered once under its command-line name") {
    assert(Sweeps.experiments.map(_._1) === Seq("table2", "eps-sweep", "minpts-sweep",
      "speedup", "rho-sweep", "two-dim", "calibrate", "phases"))
  }

  test("an unknown or missing experiment name fails and lists every name") {
    for (args <- Seq(Array("nope", "0.01"), Array.empty[String])) {
      val e = intercept[IllegalArgumentException](Sweeps.main(args))
      for ((name, _) <- Sweeps.experiments) assert(e.getMessage.contains(name), e.getMessage)
    }
  }

  test("the phase profile runs and reports each method's phases") {
    val out = Sweeps.phases(spark, scale = 0.005)
    assert(out.rows.map(_.method) === Seq("our-exact", "our-exact-bucketing", "our-exact-qt"))
    assert(out.rows.map(_.clusters).distinct.size === 1)
    assert(out.dnf.isEmpty)
    assert(out.report.contains("Phases (scale=0.005): geolife n=1000 eps=40.0"))
    for (r <- out.rows)
      assert(out.report.contains(r.method) && out.report.contains(s"queries=${r.queriesRun}/"))
  }

  test("speedup sweeps p up to the host's parallelism and always includes it") {
    assert(Sweeps.parallelisms(1) === Seq(1))
    assert(Sweeps.parallelisms(4) === Seq(1, 2, 4))
    assert(Sweeps.parallelisms(6) === Seq(1, 2, 4, 6))
    assert(Sweeps.parallelisms(32) === Seq(1, 2, 4, 8, 16, 32))
  }
}
