package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments._

/** The experiment behind each table/figure of the paper's evaluation
  * (§7.2-§7.3), plus its parameter search and phase breakdown. Each one runs
  * its sweep and returns the rows with the report that prints them; `main`
  * runs them by name and the `bench/` suites assert on the rows. `scale`
  * shrinks every dataset for smoke runs.
  *
  * Usage: `sbt "runMain repro.experiments.Sweeps <name>|all [scale]"`, on the
  * master named by `SPARK_MASTER` (default `local[*]`). */
object Sweeps {

  /** Skip-list entry: (dataset, method) pairs that blew the time budget — the
    * analogue of the paper's 1-hour cutoff ("data points that did not finish
    * within an hour are not shown"). */
  type Dnf = Set[(String, String)]

  /** One experiment's rows, the pairs that did not finish, and its report. */
  final case class Outcome(rows: Seq[RunRow], dnf: Dnf, report: String)

  private def n(base: Long, scale: Double): Long = math.max(500L, (base * scale).toLong)

  private def byEps(r: RunRow): String = s"${r.dataset} eps=${r.eps}"

  /** (method, ε, minPts) for each method across the dataset's ε sweep. */
  private def overEps(methods: Seq[String])(ds: Dataset): Seq[(String, Double, Int)] =
    for (m <- methods; eps <- ds.epsSweep) yield (m, eps, ds.minPts)

  /** Figure 6: running time vs ε, d >= 3 datasets, all methods. */
  def epsSweep(spark: SparkSession, scale: Double = 1.0, budgetMs: Long = 120000): Outcome = {
    val datasets = Seq(
      dataset("ss-simden-3d", n(100000, scale)),
      dataset("ss-varden-3d", n(100000, scale)),
      dataset("uniform-3d", n(100000, scale)),
      dataset("ss-simden-5d", n(50000, scale)),
      dataset("geolife", n(100000, scale)))
    val (rows, dnf) = sweep(spark, datasets, budgetMs)(overEps(highDimMethods))
    Outcome(rows, dnf, formatMatrix(s"Figure 6 (scale=$scale): running time vs eps, seconds",
      byEps, _.method, rows, dnf))
  }

  /** Figure 7: running time vs minPts at the default ε. */
  def minPtsSweep(spark: SparkSession, scale: Double = 1.0, budgetMs: Long = 120000): Outcome = {
    val datasets = Seq(
      dataset("ss-simden-3d", n(100000, scale)),
      dataset("ss-varden-3d", n(100000, scale)),
      dataset("uniform-3d", n(100000, scale)))
    val (rows, dnf) = sweep(spark, datasets, budgetMs) { ds =>
      for (m <- highDimMethods; mp <- Seq(10, 100, 1000, 10000)) yield (m, ds.defaultEps, mp)
    }
    Outcome(rows, dnf, formatMatrix(s"Figure 7 (scale=$scale): running time vs minPts, seconds",
      r => s"${r.dataset} minPts=${r.minPts}", _.method, rows, dnf))
  }

  /** The parallelisms `speedup` sweeps on a host running `threads` tasks at
    * once: 1, 2, 4, 8, 16 below it, and `threads` itself. Above it, p would
    * measure Spark's per-task cost, not thread scaling. */
  def parallelisms(threads: Int): Seq[Int] = Seq(1, 2, 4, 8, 16).filter(_ < threads) :+ threads

  /** Figures 8-9: speedup vs parallelism (partitions stand in for threads),
    * up to Spark's default parallelism. */
  def speedup(spark: SparkSession, scale: Double = 1.0): Outcome = {
    val pars = parallelisms(spark.sparkContext.defaultParallelism)
    // 50k keeps the serial (p=1) baseline runs of the pointwise competitors
    // within minutes — the paper's 1-hour cutoff scaled to our sizes.
    val datasets = Seq(
      dataset("ss-simden-3d", n(50000, scale)),
      dataset("ss-varden-3d", n(50000, scale)))
    val methods = Seq("our-exact", "our-exact-qt", "our-approx", "pdsdbscan", "hpdbscan")
    val rows = datasets.flatMap { ds =>
      withWorkload(spark, ds) { w =>
        for (m <- methods; p <- pars) yield run(spark, w, m, ds.defaultEps, ds.minPts, par = p)
      }
    }
    val speedups = for (((ds, m), rs) <- rows.groupBy(r => (r.dataset, r.method)).toSeq.sortBy(_._1)) yield {
      val t1 = rs.find(_.par == 1).map(_.ms.toDouble).getOrElse(Double.NaN)
      f"$ds%-16s $m%-16s " + rs.sortBy(_.par).map(r => f"p=${r.par}: ${t1 / r.ms}%.2fx").mkString("  ")
    }
    Outcome(rows, Set.empty,
      formatMatrix(s"Figures 8-9 (scale=$scale): running time vs parallelism, seconds",
        r => s"${r.dataset} p=${r.par}", _.method, rows) +
      speedups.mkString("\nSelf-relative speedup (T_1 / T_p):\n", "\n", "\n"))
  }

  /** Figure 10: running time vs ρ for the approximate methods, with the best
    * exact method as baseline. */
  def rhoSweep(spark: SparkSession, scale: Double = 1.0): Outcome = {
    val datasets = Seq(
      dataset("ss-simden-3d", n(100000, scale)),
      dataset("ss-varden-3d", n(100000, scale)))
    val rows = datasets.flatMap { ds =>
      withWorkload(spark, ds) { w =>
        val approx = for (rho <- Seq(0.001, 0.01, 0.1, 1.0); m <- Seq("our-approx", "our-approx-qt"))
          yield run(spark, w, m, ds.defaultEps, ds.minPts, rho = rho).copy(method = s"$m(rho=$rho)")
        approx :+ run(spark, w, "our-exact", ds.defaultEps, ds.minPts)
      }
    }
    Outcome(rows, Set.empty, formatTable(s"Figure 10 (scale=$scale): running time vs rho", rows))
  }

  /** Figure 11: the six 2D variants plus competitors. */
  def twoDim(spark: SparkSession, scale: Double = 1.0, budgetMs: Long = 120000): Outcome = {
    val datasets = Seq(
      dataset("ss-simden-2d", n(100000, scale)),
      dataset("ss-varden-2d", n(100000, scale)),
      dataset("uniform-2d", n(100000, scale)))
    val (rows, dnf) = sweep(spark, datasets, budgetMs)(overEps(twoDimMethods))
    Outcome(rows, dnf, formatMatrix(s"Figure 11 (scale=$scale): 2D variants, running time vs eps, seconds",
      byEps, _.method, rows, dnf))
  }

  /** Table 2: our-exact (bucketing on geolife, as in the paper) vs the
    * RP-DBSCAN stand-in on the four large-dataset stand-ins, minPts = 100. */
  def table2(spark: SparkSession, scale: Double = 1.0, budgetMs: Long = 300000): Outcome = {
    val datasets = Seq(
      dataset("geolife", n(200000, scale)),
      dataset("cosmo50", n(200000, scale)),
      dataset("openstreetmap", n(300000, scale)),
      dataset("teraclicklog", n(200000, scale)))
    val (rows, dnf) = sweep(spark, datasets, budgetMs) { ds =>
      overEps(Seq(if (ds.name == "geolife") "our-exact-bucketing" else "our-exact", "rpdbscan"))(ds)
    }
    Outcome(rows, dnf,
      formatMatrix(s"Table 2 (scale=$scale): large-scale datasets, parallel seconds",
        byEps, _.method, rows, dnf) + formatTable("Table 2 raw rows", rows))
  }

  /** Parameter search (paper §7: "we performed a search on ε and minPts ...
    * and chose the default parameters to be those that output a correct
    * clustering"): cluster count / core% / noise% of our-exact across each
    * dataset's ε sweep, so the defaults can be validated. */
  def calibrate(spark: SparkSession, scale: Double = 1.0): Outcome = {
    val datasets = Seq("ss-simden-2d", "ss-varden-2d", "ss-simden-3d", "ss-varden-3d",
      "ss-simden-5d", "uniform-2d", "uniform-3d", "geolife", "cosmo50",
      "openstreetmap", "teraclicklog").map(dataset(_, n(100000, scale)))
    val (rows, _) = sweep(spark, datasets, Long.MaxValue)(overEps(Seq("our-exact")))
    Outcome(rows, Set.empty, formatTable(s"Calibration (scale=$scale): our-exact across eps sweeps", rows))
  }

  /** Per-phase times (grid / markCore / clusterCore / clusterBorder) and the
    * cell-graph counters on geolife at its default ε — the paper's phase
    * breakdown discussion (§7.2). ClusterBorder's per-point test runs in
    * ClusterCore's last job, so `core` includes it and `border` is only the
    * driver's mapping of the cells reached to clusters (see `RunStats`). The
    * first method runs once untimed first,
    * so that no row pays for the JVM's and Spark's warm-up. */
  def phases(spark: SparkSession, scale: Double = 1.0): Outcome = {
    val ds = dataset("geolife", n(200000, scale))
    val methods = Seq("our-exact", "our-exact-bucketing", "our-exact-qt")
    val rows = withWorkload(spark, ds) { w =>
      run(spark, w, methods.head, ds.defaultEps, ds.minPts)
      methods.map(run(spark, w, _, ds.defaultEps, ds.minPts))
    }
    val lines = rows.map { r =>
      val s = r.stats; val g = s.graph
      f"${r.method}%-22s total=${s.totalMs}%6dms grid=${s.gridMs}%6d mark=${s.markCoreMs}%6d " +
        f"core=${s.clusterCoreMs}%6d border=${s.clusterBorderMs}%6d cells=${g.numCells} " +
        f"coreCells=${g.numCoreCells} queries=${g.queriesRun}/${g.candidatePairs} edges=${g.edges}"
    }
    Outcome(rows, Set.empty, lines.mkString(
      s"\n=== Phases (scale=$scale): ${ds.name} n=${ds.n} eps=${ds.defaultEps}, ms ===\n", "\n",
      "\n(core includes ClusterBorder's per-point test; border is the driver's mapping to clusters)\n"))
  }

  /** Every experiment by name, at its default budget. */
  val experiments: Seq[(String, (SparkSession, Double) => Outcome)] = Seq(
    "table2" -> (table2(_, _)),
    "eps-sweep" -> (epsSweep(_, _)),
    "minpts-sweep" -> (minPtsSweep(_, _)),
    "speedup" -> (speedup(_, _)),
    "rho-sweep" -> (rhoSweep(_, _)),
    "two-dim" -> (twoDim(_, _)),
    "calibrate" -> (calibrate(_, _)),
    "phases" -> (phases(_, _)))

  /** Runs the experiment named by the first argument, or all of them, at the
    * scale given by the second (default 1.0), and prints each report. */
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    val chosen = experiments.filter(e => name == "all" || e._1 == name)
    require(chosen.nonEmpty,
      s"unknown experiment '$name'; expected all or one of ${experiments.map(_._1).mkString(", ")}")
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"sweeps-$name")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try chosen.foreach { case (_, experiment) => println(experiment(spark, scale).report) }
    finally spark.stop()
  }

  private def withWorkload[A](spark: SparkSession, ds: Dataset)(body: Workload => A): A = {
    val w = ds.make(spark)
    try body(w) finally w.unpersist()
  }

  /** Runs each dataset's (method, ε, minPts) cells in order, skipping a
    * (dataset, method) pair for the rest of its dataset once one run blows
    * `budgetMs`; parameters ascend, so the skip is safe for the ε-monotone
    * baselines. */
  private def sweep(spark: SparkSession, datasets: Seq[Dataset], budgetMs: Long)(
      cells: Dataset => Seq[(String, Double, Int)]): (Seq[RunRow], Dnf) = {
    var dnf: Dnf = Set.empty
    val rows = datasets.flatMap { ds =>
      withWorkload(spark, ds) { w =>
        cells(ds).flatMap { case (m, eps, minPts) =>
          if (dnf.contains((ds.name, m))) None
          else {
            val r = run(spark, w, m, eps, minPts)
            if (r.ms > budgetMs) dnf += ((ds.name, m))
            Some(r)
          }
        }
      }
    }
    (rows, dnf)
  }
}
