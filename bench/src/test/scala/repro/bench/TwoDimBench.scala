package repro.bench

import repro.experiments.Sweeps

/** Paper Figure 11 (as a table): the six 2D variants (grid/box ×
  * BCP/USEC/Delaunay) plus the pointwise baselines.
  *
  * Shape claims reproduced:
  *   - all six variants are exact, so their clusterings coincide,
  *   - our variants beat pds/hp,
  *   - Delaunay-based variants carry the triangulation overhead (paper found
  *     them significantly slower; grid-bcp was fastest overall).
  */
class TwoDimBench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, _, report) = Sweeps.twoDim(spark, scale, budgetMs)

  test("figure 11 matrix") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("the six exact 2D variants agree on every clustering") {
    val ours = rows.filter(_.method.startsWith("our-2d-"))
    for (((ds, eps), group) <- ours.groupBy(r => (r.dataset, r.eps))) {
      assert(group.map(_.clusters).distinct.size === 1,
        s"$ds eps=$eps: cluster counts ${group.map(r => s"${r.method}=${r.clusters}")}")
      assert(group.map(r => (r.corePct, r.noisePct)).distinct.size === 1,
        s"$ds eps=$eps: core/noise splits disagree")
    }
  }

  test("grid-bcp beats the pointwise baselines at the default eps and above") {
    requireFullScale()
    for (ds <- rows.map(_.dataset).distinct) {
      val ours = rows.filter(r => r.dataset == ds && r.method == "our-2d-grid-bcp")
      for (b <- Seq("pdsdbscan", "hpdbscan")) {
        val base = rows.filter(r => r.dataset == ds && r.method == b)
        if (base.nonEmpty) {
          val eps = base.map(_.eps).max
          val o = ours.find(_.eps == eps).get.ms
          val t = base.find(_.eps == eps).get.ms
          assert(o <= t, s"$ds eps=$eps: grid-bcp ${o}ms vs $b ${t}ms")
        }
      }
    }
  }
}
