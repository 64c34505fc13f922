package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.KDTree

/** Stand-in for PDSDBSCAN (Patwary et al. 2012) — parallel disjoint-set
  * DBSCAN at *point* granularity.
  *
  * Every point performs an ε-range query against one shared spatial index
  * (the paper's competitor uses per-point queries too, which is why its
  * running time grows with ε and is insensitive to minPts — the work profile
  * this stand-in preserves). The ids are split into partitions that each pair
  * the broadcast global k-d tree with their owned points, and
  * [[Pointwise.cluster]] unions core points per partition and merges the
  * partitions' union-finds on the driver.
  *
  * Produces exactly the standard DBSCAN clustering (it is an exact
  * competitor in the paper), so tests compare it against [[NaiveDBSCAN]].
  */
object PdsDbscan {

  def run(spark: SparkSession, pts: Array[Pt], eps: Double, minPts: Int,
          par: Int = 0): DBSCANResult = {
    val sc = spark.sparkContext
    val byId = CellIndex.byId(pts, eps, minPts)
    val n = byId.length
    Par.sharing(sc) { share =>
      val bcPts = share(byId)
      val bcTree = share(KDTree.build(byId))
      val parts = sc.parallelize(0 until n, Par.parts(n / 256 + 1, Par.threads(sc, par)))
        .mapPartitions(ids => Iterator.single((bcTree.value, ids.map(bcPts.value(_)).toArray)))
      Pointwise.cluster(share, n, eps, minPts, parts)
    }
  }
}
