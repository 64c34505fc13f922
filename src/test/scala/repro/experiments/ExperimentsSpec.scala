package repro.experiments

import repro.SparkSpec
import repro.core.{GraphStats, RunStats}

/** The experiment harness itself: registry sanity, runner correctness on a
  * tiny workload, formatting output. */
class ExperimentsSpec extends SparkSpec {

  private val names = Seq("ss-simden-2d", "ss-varden-2d", "ss-simden-3d", "ss-varden-3d",
    "ss-simden-5d", "ss-simden-7d", "uniform-2d", "uniform-3d", "geolife", "cosmo50",
    "openstreetmap", "teraclicklog")

  test("every dataset in the registry is well-formed") {
    for (name <- names) {
      val ds = Experiments.dataset(name, 1000)
      assert(ds.name === name)
      assert(ds.epsSweep.nonEmpty && ds.epsSweep == ds.epsSweep.sorted)
      assert(ds.epsSweep.contains(ds.defaultEps) || ds.defaultEps > 0)
      assert(ds.minPts === 100)
    }
    assertThrows[IllegalArgumentException](Experiments.dataset("nope", 10))
  }

  test("workloads materialize with dense ids and the declared dimension") {
    for (name <- Seq("ss-simden-3d", "teraclicklog")) {
      val ds = Experiments.dataset(name, 2000)
      val w = ds.make(spark)
      try {
        assert(w.pts.length === 2000)
        assert(w.pts.map(_.id).toSeq === (0L until 2000L))
        assert(w.pts.head.d === ds.d)
      } finally w.unpersist()
    }
  }

  test("run executes every registered method on a tiny workload") {
    val ds = Experiments.dataset("ss-simden-2d", 2000)
    val w = ds.make(spark)
    try {
      val methods = Experiments.highDimMethods ++ Experiments.twoDimMethods ++
        Seq("rpdbscan", "serial-naive")
      for (m <- methods.distinct) {
        val r = Experiments.run(spark, w, m, eps = 400, minPts = 20)
        assert(r.method === m)
        assert(r.ms >= 0)
        assert(r.corePct >= 0 && r.corePct <= 100)
      }
      assertThrows[IllegalArgumentException](Experiments.run(spark, w, "bogus", 1, 1))
    } finally w.unpersist()
  }

  test("exact methods agree with serial-naive on the tiny workload") {
    val ds = Experiments.dataset("ss-simden-2d", 1500)
    val w = ds.make(spark)
    try {
      val want = Experiments.run(spark, w, "serial-naive", 400, 20)
      for (m <- Seq("our-exact", "our-exact-qt", "pdsdbscan", "hpdbscan",
        "our-2d-box-usec", "our-2d-grid-delaunay")) {
        val r = Experiments.run(spark, w, m, 400, 20)
        assert(r.clusters === want.clusters, s"$m clusters")
        assert(math.abs(r.corePct - want.corePct) < 1e-9, s"$m core%")
        assert(math.abs(r.noisePct - want.noisePct) < 1e-9, s"$m noise%")
      }
    } finally w.unpersist()
  }

  test("formatTable and formatMatrix render every row") {
    def stats(queries: Long) = RunStats(0, 0, 0, 0, GraphStats(0, 0, 9, queries, 0))
    val rows = Seq(
      Experiments.RunRow("dsA", "m1", 1.0, 10, 0, 100, 3, 50.0, 10.0, stats(5)),
      Experiments.RunRow("dsA", "m2", 1.0, 10, 0, 250, 3, 50.0, 10.0, stats(2)))
    val t = Experiments.formatTable("T", rows)
    assert(t.contains("dsA") && t.contains("m1") && t.contains("m2"))
    val m = Experiments.formatMatrix("M", _.dataset, _.method, rows, Set(("dsB", "m1")))
    assert(m.contains("0.100") && m.contains("0.250"))
  }
}
