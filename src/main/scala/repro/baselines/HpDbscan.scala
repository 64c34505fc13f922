package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.{KDTree, UnionFind}

/** Stand-in for HPDBSCAN (Götz et al. 2015) — partition the space, run
  * DBSCAN locally per partition, merge clusters at partition borders.
  *
  * Space is sliced into slabs along the first dimension (quantile
  * boundaries, so slabs are balanced); each point is replicated into every
  * slab whose interval intersects its ±ε extent (the halo). A slab computes
  * exact core flags and local core-core connectivity for its owned points
  * with a slab-local k-d tree; per-slab union-finds are merged on the
  * driver through the shared halo points.
  *
  * Like the real HPDBSCAN it is exact (tests compare against
  * [[NaiveDBSCAN]]) and its cost is dominated by pointwise ε-range queries
  * — growing with ε, insensitive to minPts.
  */
object HpDbscan {

  def run(spark: SparkSession, pts: Array[Pt], eps: Double, minPts: Int,
          numSlabs0: Int = 0): DBSCANResult = {
    val sc = spark.sparkContext
    val byId = CellIndex.byId(pts, eps, minPts)
    val n = byId.length
    val numSlabs = if (numSlabs0 > 0) numSlabs0
      else math.max(1, math.min(Par.threads(sc, 0) * 2, n / 2048))

    // Quantile slab boundaries on dim 0: slab s covers [bounds(s), bounds(s+1)).
    val xs = byId.map(_.x(0)).sorted
    val bounds = Array.tabulate(numSlabs + 1) { s =>
      if (s == 0) Double.NegativeInfinity
      else if (s == numSlabs) Double.PositiveInfinity
      else xs((s.toLong * n / numSlabs).toInt)
    }
    def ownerOf(v: Double): Int = CellIndex.lastLeq(bounds, v)
    // Replicate each point into every slab its ±ε extent touches.
    val assignments = byId.iterator.flatMap { p =>
      val o = ownerOf(p.x(0))
      val lo = ownerOf(p.x(0) - eps)
      val hi = ownerOf(p.x(0) + eps)
      (lo to hi).iterator.map(s => (s, (p, s == o)))
    }.toSeq
    val slabs = sc.parallelize(assignments, math.max(1, numSlabs))
      .groupByKey(numSlabs)

    // Pass 1: exact core flags for owned points (ε-ball ⊆ slab ∪ halo).
    val isCore = new Array[Boolean](n)
    slabs.flatMap { case (_, members) =>
      val all = members.map(_._1).toArray
      val tree = KDTree.build(all)
      members.iterator.collect { case (p, true) if tree.countWithin(p.x, eps) >= minPts => p.id.toInt }
    }.collect().foreach(isCore(_) = true)

    Par.sharing(sc) { share =>
      val bcCore = share(isCore)
      // Pass 2: local clustering; merge through halo points. Border points
      // emit one representative core neighbor per local component.
      val (mergePairs, borderReps) = {
        val both = slabs.map { case (_, members) =>
          val core = bcCore.value
          val all = members.map(_._1).toArray
          val tree = KDTree.build(all)
          val uf = new UnionFind(n)
          val touched = scala.collection.mutable.BitSet()
          val reps = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
          members.foreach { case (p, owned) =>
            val i = p.id.toInt
            if (owned) {
              if (core(i)) {
                tree.within(p.x, eps).foreach { j =>
                  if (core(j) && j != i) { uf.union(i, j); touched += i; touched += j }
                }
              } else {
                val seenRoots = scala.collection.mutable.HashSet[Int]()
                tree.within(p.x, eps).foreach { j =>
                  if (core(j) && seenRoots.add(uf.find(j))) reps += ((i, j))
                }
              }
            }
          }
          (touched.iterator.map(i => (i, uf.find(i))).toArray, reps.toArray)
        }.collect()
        (both.flatMap(_._1), both.flatMap(_._2))
      }
      val uf = new UnionFind(n)
      mergePairs.foreach { case (i, r) => uf.union(i, r) }
      val (cluster, numClusters) = uf.labels(isCore(_))
      val border = Array.fill(n)(Array.empty[Int])
      borderReps.groupBy(_._1).foreach { case (pid, reps) =>
        border(pid) = reps.map(r => cluster(r._2)).distinct.sorted
      }
      DBSCANResult(n, isCore, cluster, border, numClusters,
        RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
    }
  }
}
