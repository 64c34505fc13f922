package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.geometry.UnionFind

/** Stand-in for RP-DBSCAN (Song & Lee 2018) — the distributed *approximate*
  * DBSCAN the paper compares against in Table 2.
  *
  * Pipeline (mirroring the real system's structure and cost profile, not its
  * code): (1) pseudo-random partitioning of the points; (2) each partition
  * builds a local *cell dictionary* — per-cell population counts plus a
  * bounded sample of points; (3) the dictionaries are merged in a shuffle
  * (the "communication" cost the paper credits for its win in Table 2);
  * (4) cell-level clustering on the merged dictionary: cells with ≥ minPts
  * points are core, cell connectivity is decided from bounded samples
  * (within ε(1+ρ)) or box adjacency — an ρ-approximation, like the real
  * RP-DBSCAN, which "does not return the same result as DBSCAN"; (5) a
  * second full pass labels every point from the broadcast dictionary.
  */
object RpDbscan {

  final case class CellInfo(count: Int, samples: Array[Pt])

  /** Approximation slack: sampled pairs within ε(1 + Rho) connect cells. */
  private val Rho = 0.01

  /** Points sampled per cell, per partition and after the merge. */
  private val MaxSamples = 16

  def run(spark: SparkSession, points: RDD[Pt], d: Int, eps: Double, minPts: Int): DBSCANResult = {
    val sc = spark.sparkContext
    DBSCANConfig.requireParams(eps, minPts)
    val side = CellIndex.sideFor(eps, d)

    // (1)+(2) random partitioning, then per-partition cell dictionaries.
    val numParts = Par.threads(sc, 0) * 4
    val dicts = points
      .map(p => ((p.id * 0x9E3779B97F4A7C15L).abs % numParts.toLong, p))
      .partitionBy(new org.apache.spark.HashPartitioner(numParts))
      .mapPartitions { it =>
        val local = scala.collection.mutable.HashMap[Seq[Int], (Int, scala.collection.mutable.ArrayBuffer[Pt])]()
        it.foreach { case (_, p) =>
          // The ids are checked on the driver, once the labels are in.
          val k = CellIndex.gridKey(CellIndex.checked(p, d, intId = false).x, side)
          val e = local.getOrElseUpdate(k, (0, scala.collection.mutable.ArrayBuffer[Pt]()))
          if (e._2.length < MaxSamples) e._2 += p
          local(k) = (e._1 + 1, e._2)
        }
        local.iterator.map { case (k, (c, s)) => (k, CellInfo(c, s.toArray)) }
      }

    // (3) dictionary merge — the shuffle the real system pays for.
    val merged = Par.collect(dicts.reduceByKey { (a, b) =>
      CellInfo(a.count + b.count, (a.samples ++ b.samples).take(MaxSamples))
    })(_.toArray)

    val m = merged.length
    val keys = merged.map(_._1)
    val infos = merged.map(_._2)
    val keyToId = keys.zipWithIndex.toMap
    // Full cell boxes, d values per cell, and the neighbor cells of each.
    val lo = keys.flatMap(_.map(_ * side))
    val hi = keys.flatMap(_.map(k => (k + 1) * side))
    val nb = CellIndex.neighborLists(sc, lo, hi, d, eps, par = 0)
    def nbrsOf(c: Int): Range = nb.start(c) until nb.start(c + 1)

    // (4a) core cells: exact for dense cells, neighbor-count approximation
    // for sparse ones (the approximation RP-DBSCAN's two-level cells admit).
    val isCoreCell = new Array[Boolean](m)
    var i = 0
    while (i < m) {
      if (infos(i).count >= minPts) isCoreCell(i) = true
      else {
        val total = infos(i).count + nbrsOf(i).map(k => infos(nb.nbrs(k)).count).sum
        isCoreCell(i) = total >= minPts
      }
      i += 1
    }

    // (4b) cell graph from samples: connected when boxes touch or some
    // sample pair comes within ε(1+ρ).
    val uf = new UnionFind(m)
    val epsOut = eps * (1 + Rho)
    i = 0
    while (i < m) {
      if (isCoreCell(i)) {
        nbrsOf(i).foreach { k =>
          val j = nb.nbrs(k)
          if (isCoreCell(j) && j < i && uf.find(i) != uf.find(j)) {
            val touching = BBox.sqDistBetween(lo, hi, i * d, lo, hi, j * d, d) == 0.0
            val sampleHit = infos(i).samples.exists(a =>
              infos(j).samples.exists(b => Dist.leq(a.x, b.x, epsOut)))
            if (touching || sampleHit) uf.union(i, j)
          }
        }
      }
      i += 1
    }
    val (cellCluster, numClusters) = uf.labels(isCoreCell(_))
    val cellNbrClusters = Array.tabulate(m) { c =>
      (nbrsOf(c).map(nb.nbrs) :+ c).filter(isCoreCell).map(j => cellCluster(j)).distinct.sorted.toArray
    }

    // (5) final labeling pass over all points.
    Par.sharing(sc) { share =>
      val bcKeyToId = share(keyToId)
      val bcCoreCell = share(isCoreCell)
      val bcCellCluster = share(cellCluster)
      val bcNbr = share(cellNbrClusters)
      val labeled = Par.collect(points)(_.map { p =>
        val c = bcKeyToId.value(CellIndex.gridKey(p.x, side))
        if (bcCoreCell.value(c)) (p.id, true, Array(bcCellCluster.value(c)))
        else (p.id, false, bcNbr.value(c))
      }.toArray)

      val n = labeled.length
      CellIndex.requireDense(n)(labeled(_)._1)
      val isCore = new Array[Boolean](n)
      val cluster = Array.fill(n)(-1)
      val border = Array.fill(n)(Array.emptyIntArray)
      labeled.foreach { case (id, core, cs) =>
        val pid = id.toInt
        if (core) { isCore(pid) = true; cluster(pid) = cs(0) }
        else border(pid) = cs
      }
      DBSCANResult(n, isCore, cluster, border, numClusters,
        RunStats(0, 0, 0, 0, GraphStats(m, isCoreCell.count(identity), 0, 0, 0)))
    }
  }
}
