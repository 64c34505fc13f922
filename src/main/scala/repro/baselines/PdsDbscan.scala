package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.{KDTree, UnionFind}

/** Stand-in for PDSDBSCAN (Patwary et al. 2012) — parallel disjoint-set
  * DBSCAN at *point* granularity.
  *
  * Every point performs an ε-range query against a shared spatial index (the
  * paper's competitor uses per-point queries too, which is why its running
  * time grows with ε and is insensitive to minPts — the work profile this
  * stand-in preserves). Core points union with their core neighbors; the
  * per-partition union-finds are merged on the driver.
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
      val parts = Par.parts(n / 256 + 1, Par.threads(sc, par))
      val ids = sc.parallelize(0 until n, parts)

      // Pass 1: core flags via pointwise range counting.
      val isCore = new Array[Boolean](n)
      ids.filter(i => bcTree.value.countWithin(bcPts.value(i).x, eps) >= minPts)
        .collect().foreach(isCore(_) = true)
      val bcCore = share(isCore)

      // Pass 2: core-core unions, summarized per partition by a local
      // union-find (bounds driver traffic by touched ids, not edges).
      val merged = ids.mapPartitions { it =>
        val tree = bcTree.value; val ps = bcPts.value; val core = bcCore.value
        val uf = new UnionFind(n)
        val touched = scala.collection.mutable.BitSet()
        it.foreach { i =>
          if (core(i)) {
            tree.within(ps(i).x, eps).foreach { j =>
              if (core(j) && j != i) { uf.union(i, j); touched += i; touched += j }
            }
          }
        }
        touched.iterator.map(i => (i, uf.find(i)))
      }.collect()
      val uf = new UnionFind(n)
      merged.foreach { case (i, r) => uf.union(i, r) }

      val (cluster, numClusters) = uf.labels(isCore(_))
      val bcCluster = share(cluster)

      // Pass 3: border assignment via pointwise queries.
      val border = Array.fill(n)(Array.empty[Int])
      ids.flatMap { i =>
        if (bcCore.value(i)) Iterator.empty
        else {
          val cs = bcTree.value.within(bcPts.value(i).x, eps)
            .filter(bcCore.value(_))
            .map(bcCluster.value(_))
            .distinct.sorted
          if (cs.nonEmpty) Iterator.single((i, cs)) else Iterator.empty
        }
      }.collect().foreach { case (pid, cs) => border(pid) = cs }

      DBSCANResult(n, isCore, cluster, border, numClusters,
        RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
    }
  }
}
