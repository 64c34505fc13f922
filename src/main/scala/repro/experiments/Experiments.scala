package repro.experiments

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.baselines.{HpDbscan, NaiveDBSCAN, PdsDbscan, RpDbscan}
import repro.core._
import repro.data.SpatialData

/** Shared harness for the paper's evaluation section: datasets with default
  * parameters, method registry, timed runs, and table formatting. The
  * experiments themselves are in [[Sweeps]]. */
object Experiments {

  /** One benchmark dataset: paper dataset (or its stand-in) at reduced n. */
  final case class Dataset(
      name: String, d: Int, n: Long,
      epsSweep: Seq[Double], defaultEps: Double, minPts: Int,
      gen: (SparkSession, Long) => RDD[Pt]) {
    def make(spark: SparkSession): Workload = {
      val rdd = gen(spark, n).persist(StorageLevel.MEMORY_ONLY)
      // Materializes the persisted RDD before anything is timed.
      val pts = Par.collect(rdd)(_.toArray).sortBy(_.id)
      Workload(this, rdd, pts)
    }
  }

  /** Materialized dataset: RDD view (our algorithms, rpdbscan) and array view
    * (pointwise baselines, which index by id). */
  final case class Workload(ds: Dataset, rdd: RDD[Pt], pts: Array[Pt]) {
    def unpersist(): Unit = rdd.unpersist()
  }

  /** Scaled-down versions of the paper's datasets (DESIGN.md §5 documents
    * each real-dataset stand-in). Default minPts = 100 as in the paper. */
  def dataset(name: String, n: Long): Dataset = name match {
    case "ss-simden-2d" => Dataset(name, 2, n, Seq(50, 100, 200, 400), 100, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 2, varden = false))
    case "ss-varden-2d" => Dataset(name, 2, n, Seq(100, 200, 400, 800), 400, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 2, varden = true))
    case "ss-simden-3d" => Dataset(name, 3, n, Seq(50, 100, 200, 400), 100, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 3, varden = false))
    case "ss-varden-3d" => Dataset(name, 3, n, Seq(100, 200, 400, 800), 400, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 3, varden = true))
    case "ss-simden-5d" => Dataset(name, 5, n, Seq(100, 200, 400, 800), 200, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 5, varden = false))
    case "ss-simden-7d" => Dataset(name, 7, n, Seq(200, 400, 800, 1600), 400, 100,
      (s, m) => SpatialData.seedSpreader(s, m, 7, varden = false))
    case "uniform-2d" => Dataset(name, 2, n, Seq(4, 6, 8, 12), 6, 100,
      (s, m) => SpatialData.uniformFill(s, m, 2))
    case "uniform-3d" => Dataset(name, 3, n, Seq(10, 20, 40, 80), 20, 100,
      (s, m) => SpatialData.uniformFill(s, m, 3))
    case "geolife" => Dataset(name, 3, n, Seq(20, 40, 80, 160), 40, 100,
      (s, m) => SpatialData.geoLifeSim(s, m))
    case "cosmo50" => Dataset(name, 3, n, Seq(50, 100, 200, 400), 100, 100,
      (s, m) => SpatialData.cosmoSim(s, m))
    case "openstreetmap" => Dataset(name, 2, n, Seq(10, 20, 40, 80), 20, 100,
      (s, m) => SpatialData.osmSim(s, m))
    case "teraclicklog" => Dataset(name, 13, n, Seq(1500, 3000, 6000, 12000), 3000, 100,
      (s, m) => SpatialData.teraClickSim(s, m))
    case other => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** One timed run, with the run's own per-phase stats. `ms < 0` (DNF) never
    * occurs here — callers impose budgets by skipping methods that blew them
    * previously. */
  final case class RunRow(dataset: String, method: String, eps: Double, minPts: Int,
                          par: Int, ms: Long, clusters: Int, corePct: Double,
                          noisePct: Double, stats: RunStats) {
    def queriesRun: Long = stats.graph.queriesRun
  }

  private def summarize(ds: Dataset, method: String, eps: Double, minPts: Int, par: Int,
                        ms: Long, r: DBSCANResult): RunRow =
    RunRow(ds.name, method, eps, minPts, par, ms, r.numClusters,
      100.0 * r.numCore / r.n, 100.0 * r.numNoise / r.n, r.stats)

  /** All high-dimensional method names (paper §7.1). */
  val highDimMethods: Seq[String] = Seq(
    "our-exact", "our-exact-bucketing", "our-exact-qt", "our-exact-qt-bucketing",
    "our-approx", "our-approx-qt", "pdsdbscan", "hpdbscan")

  /** The six 2D variants plus competitors (paper §7.3). */
  val twoDimMethods: Seq[String] = Seq(
    "our-2d-grid-bcp", "our-2d-grid-usec", "our-2d-grid-delaunay",
    "our-2d-box-bcp", "our-2d-box-usec", "our-2d-box-delaunay",
    "pdsdbscan", "hpdbscan")

  /** Execute one (dataset, method, parameters) cell and time it end-to-end. */
  def run(spark: SparkSession, w: Workload, method: String, eps: Double,
          minPts: Int, par: Int = 0, rho: Double = 0.01): RunRow = {
    val t0 = System.nanoTime()
    val res = DBSCANConfig.named(method, eps, minPts, rho).map(_.copy(parallelism = par)) match {
      case Some(cfg) => DBSCAN.run(spark, w.rdd, w.ds.d, cfg)
      case None => method match {
        case "pdsdbscan" => PdsDbscan.run(spark, w.pts, eps, minPts, par)
        case "hpdbscan"  => HpDbscan.run(spark, w.pts, eps, minPts, par)
        case "rpdbscan"  => RpDbscan.run(spark, w.rdd, w.ds.d, eps, minPts)
        case "serial-naive" => NaiveDBSCAN.run(w.pts, eps, minPts)
        case other => throw new IllegalArgumentException(s"unknown method $other")
      }
    }
    val ms = (System.nanoTime() - t0) / 1000000
    summarize(w.ds, method, eps, minPts, par, ms, res)
  }

  /** Fixed-width table, one row per RunRow, paper-style. */
  def formatTable(title: String, rows: Seq[RunRow]): String = {
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    sb.append(f"${"dataset"}%-16s ${"method"}%-24s ${"eps"}%8s ${"minPts"}%7s ${"par"}%4s " +
      f"${"ms"}%8s ${"clus"}%5s ${"core%"}%7s ${"noise%"}%7s ${"queries"}%9s\n")
    rows.foreach { r =>
      sb.append(f"${r.dataset}%-16s ${r.method}%-24s ${r.eps}%8.1f ${r.minPts}%7d ${r.par}%4d " +
        f"${r.ms}%8d ${r.clusters}%5d ${r.corePct}%7.2f ${r.noisePct}%7.2f ${r.queriesRun}%9d\n")
    }
    sb.toString
  }

  /** Matrix view: one row per (dataset, parameter value), one column per
    * method, cells in seconds — the shape Table 2 and Figs. 6-7 use. */
  def formatMatrix(title: String, rowKey: RunRow => String, colKey: RunRow => String,
                   rows: Seq[RunRow], dnf: Set[(String, String)] = Set.empty): String = {
    val cols = rows.map(colKey).distinct
    val rks = rows.map(rowKey).distinct
    val byCell = rows.groupBy(r => (rowKey(r), colKey(r))).view.mapValues(_.head).toMap
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    sb.append(f"${""}%-28s")
    cols.foreach(c => sb.append(f"$c%26s"))
    sb.append("\n")
    rks.foreach { rk =>
      sb.append(f"$rk%-28s")
      cols.foreach { c =>
        byCell.get((rk, c)) match {
          case Some(r) => sb.append(f"${r.ms / 1000.0}%26.3f")
          case None    => sb.append(f"${if (dnf.contains((rk, c))) "DNF" else "-"}%26s")
        }
      }
      sb.append("\n")
    }
    sb.toString
  }
}
