package repro.core

import scala.collection.immutable.ArraySeq
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

  /** Returns, for each non-core point id, the sorted component ids it borders
    * (empty array elsewhere — core points and noise). */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
          bcComp: Broadcast[Array[Int]], minPts: Int, par: Int = 0): Array[Array[Int]] = {
    val idx = bcIdx.value
    val small = new mutable.ArrayBuilder.ofInt
    var c = 0
    while (c < idx.numCells) { if (idx.size(c) < minPts) small += c; c += 1 }
    val assigned = Par.perCell(sc, ArraySeq.unsafeWrapArray(small.result()), par) {
      // The offsets are lazy vals: read them once per task, not per test.
      val i = bcIdx.value
      val (start, nbrStart, nbrs, ids) = (i.start, i.nbrStart, i.nbrs, i.ids)
      val fl = bcFlags.value
      val comp = bcComp.value
      val eps = i.eps
      val e2 = eps * eps
      val (d, xs) = (i.d, i.coords)
      g => Iterator.range(start(g), start(g + 1)).filter(p => !fl(ids(p))).flatMap { p =>
        val comps = mutable.SortedSet[Int]()
        // Everything in the own cell is within ε: any core point in g puts p
        // in g's cluster without a distance check.
        if (comp(g) >= 0) comps += comp(g)
        var k = nbrStart(g)
        while (k < nbrStart(g + 1)) {
          val h = nbrs(k)
          if (comp(h) >= 0 && !comps.contains(comp(h)) && i.minSqDistToCell(h, xs, p * d) <= e2) {
            var j = start(h)
            val end = start(h + 1)
            var hit = false
            while (!hit && j < end) {
              if (fl(ids(j)) && Dist.leq(xs, j * d, xs, p * d, d, eps)) hit = true
              j += 1
            }
            if (hit) comps += comp(h)
          }
          k += 1
        }
        // One array per border point: its id, then its cluster ids.
        if (comps.nonEmpty) Iterator.single(ids(p) +: comps.toArray) else Iterator.empty
      }
    }
    val out = Array.fill(idx.n.toInt)(Array.emptyIntArray)
    assigned.foreach(a => out(a(0)) = a.tail)
    out
  }
}
