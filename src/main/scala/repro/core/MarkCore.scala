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
  * reaches minPts. A neighbor cell whose box lies wholly within ε of the
  * point counts whole, and a cell that holds fewer than minPts points with
  * its neighbors together is skipped. The per-cell loop is one
  * [[Par.slices]] pass, whose tasks first look up their cells' neighbor
  * lists and which also sets up each core cell's part of the run's
  * [[ConnCtx]].
  */
object MarkCore {

  /** Build one exact quadtree per cell (over all its points), distributed. */
  def buildCellQuadTrees(sc: SparkContext, bcIdx: Broadcast[CellIndex],
                         par: Int = 0): Array[QuadTree] =
    Par.slices(sc, bcIdx.value.numCells, par) { (from, until) =>
      val idx = bcIdx.value
      Array.range(from, until).map(c =>
        QuadTree.over(idx.coords, idx.d, Array.range(idx.start(c), idx.start(c + 1)), idx.qtLo(c), idx.cellSide))
    }.flatten

  /** Returns the core flag for every point id in [0, n). */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], minPts: Int,
          bcQt: Option[Broadcast[Array[QuadTree]]], par: Int = 0): Array[Boolean] =
    withCtx(sc, bcIdx, minPts, bcQt, BcpGraph, par)._1 // BCP sets up the least

  /** The core flag for every point id in [0, n), the [[ConnCtx]] of
    * `method` and every cell's neighbor lists, from one job: each task looks
    * up its cells' lists, marks their core points and sets up their parts of
    * the context (see `ConnCtx.pass`). */
  def withCtx(sc: SparkContext, bcIdx: Broadcast[CellIndex], minPts: Int,
              bcQt: Option[Broadcast[Array[QuadTree]]], method: GraphMethod,
              par: Int = 0): (Array[Boolean], ConnCtx, Neighbors) =
    ConnCtx.pass(sc, bcIdx, method, par) {
      // The offsets are a lazy val: read them once per task, not per test.
      val idx = bcIdx.value
      val (start, size, eps) = (idx.start, idx.cellSizes, idx.eps)
      val e2 = eps * eps
      val (d, xs, lo, hi) = (idx.d, idx.coords, idx.cellLo, idx.cellHi)
      val qts = bcQt.map(_.value)
      def isCore(c: Int, p: Int, nbrs: Array[Int], from: Int, until: Int): Boolean = {
        var count = start(c + 1) - start(c) // everything in the own cell is within ε
        var k = from
        while (count < minPts && k < until) {
          val h = nbrs(k)
          if (BBox.minSqDistTo(lo, hi, h * d, d, xs, p * d) <= e2) {
            // A box wholly within ε of p counts whole; float subtraction
            // and squaring are monotone, so this agrees with `Dist.leq`.
            if (BBox.maxSqDistTo(lo, hi, h * d, d, xs, p * d) <= e2) count += size(h)
            else qts match {
              case Some(qt) => count += qt(h).count(xs, p * d, eps, minPts - count)
              case None =>
                var j = start(h)
                val end = start(h + 1)
                while (count < minPts && j < end) {
                  if (Dist.leq(xs, j * d, xs, p * d, d, eps)) count += 1
                  j += 1
                }
            }
          }
          k += 1
        }
        count >= minPts
      }
      (c, nbrs, from, until, out) => {
        val (s, e) = (start(c), start(c + 1))
        // Points in c and its neighbors: no point of c counts more.
        var reach = e - s
        var n = from
        while (reach < minPts && n < until) { reach += size(nbrs(n)); n += 1 }
        var k = 0
        if (reach >= minPts) {
          var p = s
          while (p < e) { if (e - s >= minPts || isCore(c, p, nbrs, from, until)) { out(k) = p; k += 1 }; p += 1 }
        }
        k
      }
    }
}
