package repro.bench

import repro.experiments.{Experiments, Sweeps}

/** Paper Figure 7 (as a table): running time vs minPts at the default ε.
  *
  * Shape claims reproduced:
  *   - our MarkCore work is O(n · minPts), so our methods trend upward in
  *     minPts (most visible between 10 and 10000),
  *   - pds/hp are dominated by range queries that do not depend on minPts,
  *     so their times are comparatively flat.
  */
class MinPtsSweepBench extends BenchBase {

  private lazy val Sweeps.Outcome(rows, dnf, report) = Sweeps.minPtsSweep(spark, scale, budgetMs)

  test("figure 7 matrix") {
    emit(report)
    assert(rows.nonEmpty)
  }

  test("every method clusters at every minPts or is marked DNF") {
    val cells = rows.map(r => (r.dataset, r.method, r.minPts)).toSet
    for (ds <- rows.map(_.dataset).distinct; m <- Experiments.highDimMethods;
         mp <- Seq(10, 100, 1000, 10000))
      assert(cells.contains((ds, m, mp)) || dnf.contains((ds, m)),
        s"missing cell ($ds, $m, minPts=$mp) without DNF")
  }

  test("cluster counts shrink (weakly) as minPts grows for exact methods") {
    val exact = rows.filter(_.method == "our-exact")
    for ((ds, group) <- exact.groupBy(_.dataset)) {
      val byMp = group.sortBy(_.minPts).map(_.clusters)
      // More core points at lower minPts can only merge or keep clusters of
      // higher minPts; counts need not be monotone in general, but core
      // percentage is.
      val corePcts = group.sortBy(_.minPts).map(_.corePct)
      assert(corePcts.zip(corePcts.tail).forall { case (a, b) => a >= b - 1e-9 },
        s"$ds core% not non-increasing across minPts: $corePcts (clusters $byMp)")
    }
  }
}
