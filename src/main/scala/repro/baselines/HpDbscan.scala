package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.KDTree

/** Stand-in for HPDBSCAN (Götz et al. 2015) — partition the space, run
  * DBSCAN locally per partition, merge clusters at partition borders.
  *
  * Space is sliced into slabs along the first dimension (quantile
  * boundaries, so slabs are balanced); each point is replicated into every
  * slab whose interval intersects its ±ε extent (the halo), and owned by the
  * one slab its coordinate falls in. Each slab becomes one partition of
  * [[Pointwise.cluster]]: a slab-local k-d tree over slab and halo, and the
  * owned points. That computes exact core flags and local core-core
  * connectivity per slab, and merges the per-slab union-finds on the driver
  * through the shared halo points.
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
    val numSlabs = math.max(1,
      if (numSlabs0 > 0) math.min(numSlabs0, n) // a quantile bound needs a point
      else math.min(Par.threads(sc, 0) * 2, n / 2048))

    // Quantile slab boundaries on dim 0: slab s covers [bounds(s), bounds(s+1)).
    val xs = byId.map(_.x(0)).sorted
    val bounds = Array.tabulate(numSlabs + 1) { s =>
      if (s == 0) Double.NegativeInfinity
      else if (s == numSlabs) Double.PositiveInfinity
      else xs((s.toLong * n / numSlabs).toInt)
    }
    // Replicate each point into every slab its ±ε extent touches: a slab
    // holds no point within ε of x when its nearest bound is farther than ε
    // from x on dimension 0, tested as `Dist.leq` tests that dimension (a
    // float sum of non-negative terms is never below one of them).
    val e2 = eps * eps
    def near(a: Double, b: Double) = (a - b) * (a - b) <= e2
    val assignments = byId.iterator.flatMap { p =>
      val x = p.x(0)
      val o = CellIndex.lastLeq(bounds, x)
      var lo = o; while (lo > 0 && near(x, bounds(lo))) lo -= 1
      var hi = o; while (hi < numSlabs - 1 && near(bounds(hi + 1), x)) hi += 1
      (lo to hi).iterator.map(s => (s, (p, s == o)))
    }.toSeq
    val slabs = sc.parallelize(assignments, numSlabs).groupByKey(numSlabs).map { case (_, members) =>
      (KDTree.build(members.map(_._1).toArray), members.collect { case (p, true) => p }.toArray)
    }
    Par.sharing(sc)(Pointwise.cluster(_, n, eps, minPts, slabs))
  }
}
