package repro.bench

import repro.experiments.Sweeps

/** Paper Figure 6 (as a table): running time vs ε for d >= 3.
  *
  * Shape claims reproduced:
  *   - pointwise baselines (pds/hp) get *slower* as ε grows (range queries
  *     return more), while our methods tend to get faster (fewer cells),
  *   - our methods beat the baselines at the dataset's default ε and above.
  */
class EpsSweepBench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, _, report) = Sweeps.epsSweep(spark, scale, budgetMs)

  test("figure 6 matrix") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("our-exact beats pointwise baselines at the largest completed eps") {
    requireFullScale()
    for (ds <- rows.map(_.dataset).distinct) {
      val ours = rows.filter(r => r.dataset == ds && r.method == "our-exact")
      for (b <- Seq("pdsdbscan", "hpdbscan")) {
        val base = rows.filter(r => r.dataset == ds && r.method == b)
        // Compare at the largest eps the baseline completed (DNF counts as a loss).
        if (base.nonEmpty) {
          val eps = base.map(_.eps).max
          val o = ours.find(_.eps == eps).get.ms
          val t = base.find(_.eps == eps).get.ms
          assert(o <= t, s"$ds eps=$eps: our-exact ${o}ms vs $b ${t}ms")
        }
      }
    }
  }

  test("all exact variants report identical cluster counts") {
    val exact = rows.filter(r => Seq("our-exact", "our-exact-bucketing",
      "our-exact-qt", "our-exact-qt-bucketing").contains(r.method))
    for (((ds, eps), group) <- exact.groupBy(r => (r.dataset, r.eps)))
      assert(group.map(_.clusters).distinct.size === 1,
        s"$ds eps=$eps clusters disagree: ${group.map(r => s"${r.method}=${r.clusters}")}")
  }

  test("bucketing never runs more connectivity queries than non-bucketing") {
    for (((ds, eps), group) <- rows.groupBy(r => (r.dataset, r.eps))) {
      for ((plain, bucketed) <- Seq(("our-exact", "our-exact-bucketing"),
        ("our-exact-qt", "our-exact-qt-bucketing"))) {
        (group.find(_.method == plain), group.find(_.method == bucketed)) match {
          case (Some(p), Some(b)) =>
            assert(b.queriesRun <= p.queriesRun, s"$ds eps=$eps: $bucketed ran more queries")
          case _ =>
        }
      }
    }
  }
}
