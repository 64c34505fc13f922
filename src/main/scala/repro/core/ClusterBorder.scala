package repro.core

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast

/** Parallel ClusterBorder (paper Alg. 4).
  *
  * Every non-core point checks its own cell and the neighboring cells for a
  * core point within ε, and joins the cluster of each core cell it reaches
  * (a border point can belong to several clusters). One hit per core cell
  * suffices, so the scan of a cell early-exits, and a core cell whose box
  * lies wholly within ε is a hit without a scan. The test needs the core
  * flags and the neighbor lists, not the cell graph's components: a run
  * does it in ClusterCore's last job ([[ClusterCore.run]]), skipping the
  * cells of a component it reached already as far as that job knows the
  * components, and the driver maps the core cells each point reaches to
  * cluster ids after the last round's unions ([[assign]]).
  *
  * Only the cells that hold a non-core point and reach a core point, in
  * themselves or a neighbor cell, are visited.
  */
object ClusterBorder {

  /** One task's hits, flat: per non-core point that reaches a core cell, its
    * id, the number of core cells it reaches, and (all points in turn) the
    * core cells. */
  private[core] type Hits = (Array[Int], Array[Int], Array[Int])

  /** The cells that hold a non-core point and reach a core point,
    * ascending: those holding a core point themselves or with a neighbor
    * cell in `nb` that does. A non-core point looks only in its own cell
    * and the neighbor cells, so no other cell holds a border point. */
  private[core] def cells(idx: CellIndex, flags: Array[Boolean], nb: Neighbors): Array[Int] = {
    val (start, ids, nbStart, nbrs) = (idx.start, idx.ids, nb.start, nb.nbrs)
    val core = new Array[Int](idx.numCells) // each cell's core points
    var c = 0; var p = 0
    while (c < core.length) { // cells are contiguous position ranges from 0
      while (p < start(c + 1)) { if (flags(ids(p))) core(c) += 1; p += 1 }
      c += 1
    }
    def coreNeighbor(c: Int) = {
      var k = nbStart(c)
      while (k < nbStart(c + 1) && core(nbrs(k)) == 0) k += 1
      k < nbStart(c + 1)
    }
    Array.range(0, idx.numCells).filter(c => core(c) < idx.size(c) && (core(c) > 0 || coreNeighbor(c)))
  }

  /** The hits of the non-core points of `cells[from, until)`: the core
    * cells each one reaches — its own cell, if core, since everything in
    * it is within ε, and each core neighbor cell holding a core point
    * within ε. `rep(c)` is -1 for a non-core cell c, else a representative
    * of c's component as far as the caller knows it: a cell whose
    * representative the point reached already is skipped, since it joins
    * no new cluster. */
  private[core] def hits(idx: CellIndex, nb: Neighbors, fl: Array[Boolean], rep: Int => Int,
                         cells: Array[Int], from: Int, until: Int): Hits = {
    // The offsets are lazy vals: read them once per task, not per test.
    val (start, nbrStart, nbrs, ids) = (idx.start, nb.start, nb.nbrs, idx.ids)
    val (eps, d, xs) = (idx.eps, idx.d, idx.coords)
    val e2 = eps * eps
    // The representatives a point reached: at most one per cell of g and its neighbors.
    val found = new Array[Int](1 + (from until until).foldLeft(0)((s, i) => math.max(s, nb.counts(cells(i)))))
    val (border, counts, reached) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt,
      new mutable.ArrayBuilder.ofInt)
    for (g <- cells.slice(from, until); p <- start(g) until start(g + 1) if !fl(ids(p))) {
      var k = 0
      if (rep(g) >= 0) { found(0) = rep(g); reached += g; k = 1 }
      var n = nbrStart(g)
      while (n < nbrStart(g + 1)) {
        val h = nbrs(n)
        val r = rep(h)
        var seen = r < 0
        var f = 0
        while (!seen && f < k) { seen = found(f) == r; f += 1 }
        if (!seen && idx.minSqDistToCell(h, xs, p * d) <= e2) {
          // A core cell whose box lies wholly within ε holds a core point
          // within ε; float subtraction and squaring are monotone, so this
          // agrees with `Dist.leq`.
          var hit = BBox.maxSqDistTo(idx.cellLo, idx.cellHi, h * d, d, xs, p * d) <= e2
          var j = start(h)
          while (!hit && j < start(h + 1)) {
            hit = fl(ids(j)) && Dist.leq(xs, j * d, xs, p * d, d, eps)
            j += 1
          }
          if (hit) { found(k) = r; k += 1; reached += h }
        }
        n += 1
      }
      if (k > 0) { border += ids(p); counts += k }
    }
    (border.result(), counts.result(), reached.result())
  }

  /** For each point id in [0, n), the sorted distinct clusters of the core
    * cells it reaches in `hits`, where cell c's cluster is `cellCluster(c)`
    * (empty for points no hit names: core points and noise). */
  private[core] def assign(n: Int, hits: Array[Hits], cellCluster: Array[Int]): Array[Array[Int]] = {
    val out = Array.fill(n)(Array.emptyIntArray)
    for ((border, counts, reached) <- hits) {
      var off = 0
      for (b <- border.indices) {
        val cs = reached.slice(off, off + counts(b))
        var k = 0
        while (k < cs.length) { cs(k) = cellCluster(cs(k)); k += 1 }
        java.util.Arrays.sort(cs)
        // Cells of one component share a cluster: keep each cluster once.
        var u = 0
        k = 0
        while (k < cs.length) { if (u == 0 || cs(k) != cs(u - 1)) { cs(u) = cs(k); u += 1 }; k += 1 }
        out(border(b)) = if (u == cs.length) cs else cs.take(u)
        off += counts(b)
      }
    }
    out
  }

  /** For each non-core point id, the sorted component ids it borders (empty
    * array elsewhere — core points and noise), for an index that holds its
    * neighbor lists (`CellIndex.grid`, `box2d`): runs [[hits]] in a job of
    * its own, with the components `comp` as representatives (core cells
    * are those with `comp(c) >= 0`), and maps them with [[assign]]. The flags say which points are core, so
    * `minPts` is not read. Throws on the driver for an index without lists. */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
          bcComp: Broadcast[Array[Int]], minPts: Int, par: Int = 0): Array[Array[Int]] =
    Par.sharing(sc) { share =>
      val idx = bcIdx.value
      val lists = CellIndex.listsOf(idx)
      val bcNbrs = share(lists)
      val border = cells(idx, bcFlags.value, lists)
      assign(idx.n.toInt, Par.slices(sc, border.length, par) { (from, until) =>
        val comp = bcComp.value
        hits(bcIdx.value, bcNbrs.value, bcFlags.value, comp(_), border, from, until)
      }, bcComp.value)
    }
}
