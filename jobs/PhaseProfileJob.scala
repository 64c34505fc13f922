package repro.jobs

import repro.core.{DBSCAN, DBSCANConfig}
import repro.experiments.Experiments

/** Prints per-phase timings (grid / markCore / clusterCore / clusterBorder)
  * for one dataset+method — the paper's phase breakdown discussion (§7.2).
  *
  * Usage: spark-submit ... repro.jobs.PhaseProfileJob [dataset] [n] [eps]
  */
object PhaseProfileJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("phase-profile")
    try {
      val name = if (args.length > 0) args(0) else "geolife"
      val n = if (args.length > 1) args(1).toLong else 200000L
      val ds = Experiments.dataset(name, n)
      val eps = if (args.length > 2) args(2).toDouble else ds.defaultEps
      val w = ds.make(spark)
      for (m <- Seq("our-exact", "our-exact-bucketing", "our-exact-qt")) {
        val cfg = DBSCANConfig.named(m, eps, ds.minPts, rho = 0.01).get
        val res = DBSCAN.run(spark, w.rdd, ds.d, cfg)
        val s = res.stats
        println(f"$name eps=$eps $m%-22s total=${s.totalMs}%6dms grid=${s.gridMs}%6d " +
          f"mark=${s.markCoreMs}%6d core=${s.clusterCoreMs}%6d border=${s.clusterBorderMs}%6d " +
          f"cells=${s.graph.numCells} coreCells=${s.graph.numCoreCells} " +
          f"queries=${s.graph.queriesRun}/${s.graph.candidatePairs} edges=${s.graph.edges}")
      }
      w.unpersist()
    } finally spark.stop()
  }
}
