package repro.bench

import repro.experiments.Sweeps

/** Paper Figure 10 (as a table): running time vs ρ for the approximate
  * methods with the best exact method as the baseline.
  *
  * Shape claims reproduced:
  *   - running time decreases (weakly) as ρ grows,
  *   - exact DBSCAN remains competitive with approximate DBSCAN at
  *     well-chosen parameters (paper: exact is 1.24x faster on average).
  */
class RhoSweepBench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, _, report) = Sweeps.rhoSweep(spark, scale)

  test("figure 10 table") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("approximate methods do not get slower as rho grows (within noise)") {
    for (ds <- rows.map(_.dataset).distinct; base <- Seq("our-approx", "our-approx-qt")) {
      val rs = rows.filter(r => r.dataset == ds && r.method.startsWith(s"$base(rho="))
      val ts = rs.map(_.ms.toDouble)
      // Allow generous noise: the paper's claim is a *small* decrease with
      // rho; what must not happen is runtime exploding as rho grows.
      assert(ts.max <= 3.0 * math.max(1.0, ts.min) + 500,
        s"$ds $base: rho sweep spread too large: $ts")
    }
  }

  test("exact is competitive with approximate at default parameters") {
    for (ds <- rows.map(_.dataset).distinct) {
      val exact = rows.find(r => r.dataset == ds && r.method == "our-exact").get.ms
      val bestApprox = rows.filter(r => r.dataset == ds && r.method.startsWith("our-approx"))
        .map(_.ms).min
      assert(exact <= 5 * math.max(1, bestApprox),
        s"$ds: exact ${exact}ms far slower than approx ${bestApprox}ms")
    }
  }

  test("cluster counts agree between exact and small-rho approximate") {
    for (ds <- rows.map(_.dataset).distinct) {
      val exact = rows.find(r => r.dataset == ds && r.method == "our-exact").get
      val approx = rows.find(r => r.dataset == ds && r.method == "our-approx(rho=0.001)").get
      assert(approx.clusters === exact.clusters,
        s"$ds: approx(0.001) ${approx.clusters} clusters vs exact ${exact.clusters}")
    }
  }
}
