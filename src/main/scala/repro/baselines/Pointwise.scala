package repro.baselines

import scala.collection.mutable
import org.apache.spark.rdd.RDD
import repro.core._
import repro.geometry.{KDTree, UnionFind}

/** The local-DBSCAN skeleton of the two pointwise competitors, PDSDBSCAN and
  * HPDBSCAN (paper §7.1): each partition clusters the points it owns with a
  * disjoint-set structure of its own, and the driver merges the partitions'
  * components.
  *
  * Every point makes one ε-range count and one ε-range query, so the cost
  * grows with ε and does not depend on minPts — the profile the paper
  * attributes to these competitors. The result is exactly the standard DBSCAN
  * clustering.
  */
private[baselines] object Pointwise {

  /** DBSCAN of points with dense ids [0, n), in two Spark jobs. Each element
    * of `parts` is one partition: a k-d tree over every point its owned
    * points' ε-balls can reach, and the owned points. Each point is owned by
    * exactly one partition. `parts` is persisted for both jobs, so each
    * partition, and so each tree, is computed once. */
  def cluster(share: Par.Share, n: Int, eps: Double, minPts: Int,
              parts: RDD[(KDTree, Array[Pt])]): DBSCANResult = Par.persisting(parts) {
    // Pass 1: core flags by pointwise range counting.
    val isCore = new Array[Boolean](n)
    Par.collect(parts)(_.flatMap { case (tree, owned) =>
      owned.iterator.filter(p => tree.countWithin(p.x, eps) >= minPts).map(_.id.toInt)
    }.toArray).foreach(isCore(_) = true)
    val bcCore = share(isCore)

    // Pass 2: a local union-find over the owned core points and their core
    // neighbors, summarized as (id, local root) for the ids it touched; each
    // owned non-core point keeps one core neighbor per local component.
    val local = Par.collect(parts)(_.map { case (tree, owned) =>
      val core = bcCore.value
      val uf = new UnionFind(n)
      val touched = mutable.BitSet()
      owned.foreach { p =>
        val i = p.id.toInt
        if (core(i)) tree.within(p.x, eps).foreach { j =>
          if (core(j) && j != i) { uf.union(i, j); touched += i; touched += j }
        }
      }
      val kept = owned.iterator.filter(p => !core(p.id.toInt)).map { p =>
        val roots = mutable.HashSet[Int]()
        (p.id.toInt, tree.within(p.x, eps).filter(j => core(j) && roots.add(uf.find(j))))
      }.filter(_._2.nonEmpty).toArray
      (touched.iterator.map(i => (i, uf.find(i))).toArray, kept)
    }.toArray)

    val uf = new UnionFind(n)
    for ((roots, _) <- local; (i, r) <- roots) uf.union(i, r)
    val (cluster, numClusters) = uf.labels(isCore(_))
    val border = Array.fill(n)(Array.emptyIntArray)
    for ((_, kept) <- local; (i, js) <- kept) border(i) = js.map(cluster).distinct.sorted
    DBSCANResult(n, isCore, cluster, border, numClusters,
      RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
  }
}
