package repro.core

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
    val flags = bcFlags.value
    val smallCells = (0 until idx.numCells).filter { c =>
      idx.pts(c).exists(p => !flags(p.id.toInt))
    }
    val assigned = Par.perCell(sc, smallCells, par) { g =>
      val i = bcIdx.value
      val fl = bcFlags.value
      val comp = bcComp.value
      val eps = i.eps
      val e2 = eps * eps
      val cells = g +: i.neighbors(g).toSeq
      i.pts(g).iterator.filter(p => !fl(p.id.toInt)).flatMap { p =>
        val comps = scala.collection.mutable.SortedSet[Int]()
        for (h <- cells if comp(h) >= 0 && !comps.contains(comp(h))) {
          if (h == g) {
            // Everything in the own cell is within ε: any core point in g
            // puts p in g's cluster without a distance check.
            comps += comp(g)
          } else if (i.minSqDistToCell(h, p.x) <= e2) {
            val hp = i.pts(h)
            var j = 0
            var hit = false
            while (!hit && j < hp.length) {
              if (fl(hp(j).id.toInt) && Dist.leq(hp(j).x, p.x, eps)) hit = true
              j += 1
            }
            if (hit) comps += comp(h)
          }
        }
        // One array per border point: its id, then its cluster ids.
        if (comps.nonEmpty) Iterator.single(p.id.toInt +: comps.toArray) else Iterator.empty
      }
    }
    val out = Array.fill(idx.n.toInt)(Array.empty[Int])
    assigned.foreach(a => out(a(0)) = a.tail)
    out
  }
}
