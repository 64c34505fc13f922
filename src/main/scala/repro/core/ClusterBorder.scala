package repro.core

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast

/** Parallel ClusterBorder (paper Alg. 4).
  *
  * Every non-core point checks its own cell and the neighboring cells for a
  * core point within ε, joining that cell's cluster on a hit (a border point
  * can belong to several clusters). Since all core points of one cell share a
  * component, one hit per neighbor cell suffices — the scan early-exits.
  *
  * Non-core points only exist in cells with < minPts points (bigger cells are
  * all-core), so only those cells are visited.
  */
object ClusterBorder {

  /** [[run]] for an index that holds its neighbor lists (`CellIndex.grid`,
    * `box2d`): broadcasts them for the call. Throws on the driver for an
    * index without them. */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
          bcComp: Broadcast[Array[Int]], minPts: Int, par: Int = 0): Array[Array[Int]] =
    Par.sharing(sc)(share => run(sc, bcIdx, share(CellIndex.listsOf(bcIdx.value)), bcFlags, bcComp, minPts, par))

  /** Returns, for each non-core point id, the sorted component ids it borders
    * (empty array elsewhere — core points and noise), the cells' neighbor
    * lists read from `bcNbrs`. */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcNbrs: Broadcast[Neighbors],
          bcFlags: Broadcast[Array[Boolean]], bcComp: Broadcast[Array[Int]], minPts: Int,
          par: Int): Array[Array[Int]] = {
    val idx = bcIdx.value
    val small = new mutable.ArrayBuilder.ofInt
    var c = 0
    while (c < idx.numCells) { if (idx.size(c) < minPts) small += c; c += 1 }
    val cells = small.result()
    val blocks = Par.slices(sc, cells.length, par) { (from, until) =>
      // The offsets are lazy vals: read them once per task, not per test.
      val (i, nb, fl, comp) = (bcIdx.value, bcNbrs.value, bcFlags.value, bcComp.value)
      val (start, nbrStart, nbrs, ids) = (i.start, nb.start, nb.nbrs, i.ids)
      val (eps, d, xs) = (i.eps, i.d, i.coords)
      val e2 = eps * eps
      // The clusters a point borders, distinct: at most one per cell of g
      // and its neighbors.
      val found = new Array[Int](1 + nb.maxCount)
      // Per border point: its id, its cluster count, and its clusters, sorted.
      val (border, counts, clusters) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt,
        new mutable.ArrayBuilder.ofInt)
      for (g <- cells.slice(from, until); p <- start(g) until start(g + 1) if !fl(ids(p))) {
        // Everything in the own cell is within ε: any core point in g puts p
        // in g's cluster without a distance check.
        var k = 0
        if (comp(g) >= 0) { found(0) = comp(g); k = 1 }
        var n = nbrStart(g)
        while (n < nbrStart(g + 1)) {
          val h = nbrs(n)
          var seen = comp(h) < 0
          var f = 0
          while (!seen && f < k) { seen = found(f) == comp(h); f += 1 }
          if (!seen && i.minSqDistToCell(h, xs, p * d) <= e2) {
            var j = start(h)
            val end = start(h + 1)
            var hit = false
            while (!hit && j < end) {
              if (fl(ids(j)) && Dist.leq(xs, j * d, xs, p * d, d, eps)) hit = true
              j += 1
            }
            if (hit) { found(k) = comp(h); k += 1 }
          }
          n += 1
        }
        if (k > 0) {
          java.util.Arrays.sort(found, 0, k)
          border += ids(p); counts += k; clusters.addAll(found, 0, k)
        }
      }
      (border.result(), counts.result(), clusters.result())
    }
    val out = Array.fill(idx.n.toInt)(Array.emptyIntArray)
    for ((border, counts, clusters) <- blocks) {
      var off = 0
      for (b <- border.indices) { out(border(b)) = clusters.slice(off, off + counts(b)); off += counts(b) }
    }
    out
  }
}
