package repro.baselines

import repro.core._
import repro.geometry.KDTree

/** Sequential reference DBSCAN — the original Ester et al. algorithm with a
  * k-d tree for ε-neighborhood queries.
  *
  * This is (a) the ground truth every parallel implementation is tested
  * against, and (b) the "parallel baseline based on the original DBSCAN
  * algorithm" the paper mentions in §7.2 when run through
  * [[PdsDbscan]]-style pointwise queries.
  *
  * Semantics follow the paper's definition exactly: border points may belong
  * to multiple clusters.
  */
object NaiveDBSCAN {

  def run(pts: Array[Pt], eps: Double, minPts: Int): DBSCANResult = {
    val byId = CellIndex.byId(pts, eps, minPts)
    val n = byId.length
    val tree = KDTree.build(byId)

    val isCore = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      isCore(i) = tree.countWithin(byId(i).x, eps) >= minPts
      i += 1
    }

    // BFS over the ε-graph restricted to core points.
    val cluster = Array.fill(n)(-1)
    var next = 0
    i = 0
    while (i < n) {
      if (isCore(i) && cluster(i) < 0) {
        val cid = next; next += 1
        cluster(i) = cid
        val queue = scala.collection.mutable.ArrayDeque[Int](i)
        while (queue.nonEmpty) {
          val u = queue.removeHead()
          tree.within(byId(u).x, eps).foreach { v =>
            if (isCore(v) && cluster(v) < 0) { cluster(v) = cid; queue += v }
          }
        }
      }
      i += 1
    }

    val border = Array.fill(n)(Array.emptyIntArray)
    i = 0
    while (i < n) {
      if (!isCore(i)) {
        val cs = tree.within(byId(i).x, eps)
          .filter(isCore(_))
          .map(cluster(_))
          .distinct.sorted
        border(i) = cs
      }
      i += 1
    }

    DBSCANResult(n, isCore, cluster, border, next,
      RunStats(0, 0, 0, 0, GraphStats(0, 0, 0, 0, 0)))
  }
}
