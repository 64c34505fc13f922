package repro.bench

import repro.experiments.Sweeps

/** Paper Figures 8-9 (as a table): running time and self-relative speedup vs
  * parallelism. Spark partitions stand in for the paper's threads; local[*]
  * schedules at most #cores of them concurrently.
  *
  * Shape claims reproduced: our methods scale with parallelism (paper:
  * 2-89x self-relative on 36h cores), so the highest p swept (the host's
  * parallelism) must beat p=1 clearly.
  */
class SpeedupBench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, _, report) = Sweeps.speedup(spark, scale)

  test("figures 8-9 matrix and speedups") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("our-exact gets parallel speedup at the highest p over p=1") {
    requireFullScale()
    for (ds <- rows.map(_.dataset).distinct) {
      val rs = rows.filter(r => r.dataset == ds && r.method == "our-exact")
      val t1 = rs.find(_.par == 1).get.ms
      val top = rs.maxBy(_.par)
      assert(top.par > 1, s"$ds: only p=1 was swept")
      assert(top.ms < t1, s"$ds: p=${top.par} (${top.ms}ms) not faster than p=1 (${t1}ms)")
    }
  }

  test("results are identical across parallelism levels") {
    for (((ds, m), rs) <- rows.groupBy(r => (r.dataset, r.method)))
      assert(rs.map(r => (r.clusters, r.corePct, r.noisePct)).distinct.size === 1,
        s"$ds/$m results vary across parallelism")
  }
}
