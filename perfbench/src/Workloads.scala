package perfbench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.SpatialData

/** One benchmark workload: a generator from `data/SpatialData`, its size and
  * the DBSCAN variant it runs. The seed goes to the generator only. */
final case class Workload(
    name: String,
    why: String,
    d: Int,
    n: Long,
    cfg: DBSCANConfig,
    gen: (SparkSession, Long, Long) => RDD[Pt]) {
}

/** The workloads, each dominated by a different layer. Sizes are small
  * (50k and 75k points) so that a run, including the sequential reference,
  * fits the benchmark's time budget. `why` says what each one is here to
  * measure. */
object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("geolife-bucketing",
      "GeoLife stand-in with bucketing: extreme skew, cell construction and many small Spark jobs dominate",
      3, 50000L,
      DBSCANConfig.exact(20, 100).copy(bucketing = true),
      (s, n, seed) => SpatialData.geoLifeSim(s, n, seed)),
    Workload("osm2d-usec",
      "2D OpenStreetMap stand-in with USEC: the only 2D and USEC path, most noise so most ClusterBorder work",
      2, 75000L,
      DBSCANConfig(20, 100, GridCells, ScanCore, UsecGraph),
      (s, n, seed) => SpatialData.osmSim(s, n, seed = seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
