package repro.bench

import repro.experiments.Sweeps

/** Paper Table 2: our-exact (bucketing on GeoLife) vs RP-DBSCAN on the four
  * large-dataset stand-ins, four ε values each, minPts = 100.
  *
  * Paper's shape claims this bench must reproduce:
  *   - our-exact beats rpdbscan on every dataset/ε (paper: 18-577x),
  *   - TeraClickLog degenerates to one all-core cluster and is therefore
  *     *not* proportionally slower despite being the widest dataset,
  *   - times are largely flat in ε for our-exact (paper rows vary < 2x).
  */
class Table2Bench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, _, report) = Sweeps.table2(spark, scale, budgetMs)

  test("table 2 matrix") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("our-exact beats the rpdbscan stand-in on every dataset") {
    requireFullScale()
    val ours = rows.filter(_.method.startsWith("our-exact"))
    val rp = rows.filter(_.method == "rpdbscan")
    for (ds <- ours.map(_.dataset).distinct) {
      val oT = ours.filter(_.dataset == ds).map(_.ms).sum.toDouble
      val rT = rp.filter(_.dataset == ds).map(_.ms).sum.toDouble
      assert(rp.exists(_.dataset == ds), s"rpdbscan missing for $ds")
      assert(oT < rT, s"$ds: ours ${oT}ms not faster than rpdbscan ${rT}ms")
    }
  }

  test("teraclicklog degenerates to a single all-core cluster") {
    val t = rows.filter(r => r.dataset == "teraclicklog" && r.method.startsWith("our-"))
    assert(t.nonEmpty)
    t.foreach { r =>
      assert(r.clusters === 1)
      assert(r.corePct === 100.0)
      assert(r.noisePct === 0.0)
    }
  }

  test("geolife stays a single dominant cluster across eps") {
    requireFullScale() // the blob's core density needs the full point count
    val g = rows.filter(r => r.dataset == "geolife" && r.method.startsWith("our-"))
    assert(g.nonEmpty)
    g.foreach(r => assert(r.clusters >= 1 && r.corePct > 50.0))
  }
}
