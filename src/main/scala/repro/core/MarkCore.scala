package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.geometry.QuadTree

/** Parallel MarkCore (paper Alg. 2).
  *
  * Cells holding ≥ minPts points are all-core (every pair inside a cell is
  * within ε). Points in smaller cells range-count their ε-ball against the
  * O(1) neighboring cells, either by scanning the neighbor's points
  * (`our-exact` / `our-approx`) or through a per-cell quadtree
  * (`our-exact-qt` / `our-approx-qt`), with an early exit once the count
  * reaches minPts. The per-cell loop is one [[Par.perCell]] pass.
  */
object MarkCore {

  /** Build one exact quadtree per cell (over all its points), distributed. */
  def buildCellQuadTrees(sc: SparkContext, bcIdx: Broadcast[CellIndex],
                         par: Int = 0): Array[QuadTree] = {
    Par.perCell(sc, 0 until bcIdx.value.numCells, par) { c =>
      val idx = bcIdx.value
      Some(QuadTree.over(idx.coords, idx.d, Array.range(idx.start(c), idx.start(c + 1)),
        idx.qtLo(c), idx.cellSide))
    }
  }

  /** Returns the core flag for every point id in [0, n). */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], minPts: Int,
          bcQt: Option[Broadcast[Array[QuadTree]]], par: Int = 0): Array[Boolean] = {
    val coreIds = Par.perCell(sc, 0 until bcIdx.value.numCells, par) { c =>
      val idx = bcIdx.value
      val (s, e) = (idx.start(c), idx.start(c + 1))
      if (e - s >= minPts) Iterator.range(s, e).map(idx.ids(_))
      else {
        val eps = idx.eps
        val e2 = eps * eps
        val (d, xs) = (idx.d, idx.coords)
        Iterator.range(s, e).filter { p =>
          var count = e - s // everything in the own cell is within ε
          var k = idx.nbrStart(c)
          while (count < minPts && k < idx.nbrStart(c + 1)) {
            val h = idx.nbrs(k)
            if (idx.minSqDistToCell(h, xs, p * d) <= e2) {
              bcQt match {
                case Some(qts) => count += qts.value(h).count(xs, p * d, eps, minPts - count)
                case None =>
                  var j = idx.start(h)
                  while (count < minPts && j < idx.start(h + 1)) {
                    if (Dist.leq(xs, j * d, xs, p * d, d, eps)) count += 1
                    j += 1
                  }
              }
            }
            k += 1
          }
          count >= minPts
        }.map(idx.ids(_))
      }
    }
    val flags = new Array[Boolean](bcIdx.value.n.toInt)
    coreIds.foreach(flags(_) = true)
    flags
  }
}
