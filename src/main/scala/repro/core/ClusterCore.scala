package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.geometry.{Delaunay, UnionFind}

/** Statistics from cell-graph construction (used by the bucketing benches). */
final case class GraphStats(
    numCells: Int,
    numCoreCells: Int,
    candidatePairs: Long,
    queriesRun: Long,
    edges: Long,
)

/** Parallel ClusterCore (paper Alg. 3), with ClusterBorder's per-point
  * test (paper Alg. 4) in its last job.
  *
  * Builds the cell graph — an edge between neighboring core cells whose core
  * points come within ε — and returns each cell's connected component as a
  * dense cluster id.
  *
  * Connectivity *queries* are evaluated in parallel in Spark; the
  * union-find over the (small) cell graph lives on the driver. Core cells
  * are sorted by core-point count, descending (the paper's SortBySize). The
  * run is R rounds, each one [[Par.slices2]] job over that order, so each
  * task keeps the same range of it for the whole run; in round j it walks
  * the j-th of R equal parts of its range, in order. A pair is pruned
  * before evaluation when it is already in one component: the component as
  * of the start of the round, joined by every link found earlier in the
  * round by its task (each task keeps one union-find per round, the nearest
  * analogue of the paper's shared one), and the round's job carries that
  * snapshot of the driver's union-find in its closure. The driver unions
  * each round's links before the next. With `bucketing` (paper §4.4) R = `numBuckets`,
  * else R = 1. An owner sits in the same task, at the same position, in
  * both runs, and with bucketing it also sees every link any task found in
  * an earlier round, so bucketing never runs more queries than the plain
  * run.
  *
  * The last round's tasks also each take one range of the border cells
  * given and, after their owners, return their points'
  * [[ClusterBorder.hits]]. These need no component, but a task skips a
  * cell whose component, as of the round's snapshot joined by the task's
  * own links, a point reached already. The Delaunay graph, built on the
  * driver, runs that one round with no owners. A run without core cells
  * runs no round: it has no border point either.
  */
object ClusterCore {

  /** [[run]] for an index that holds its neighbor lists (`CellIndex.grid`,
    * `box2d`), without the border pass: broadcasts the flags, the context
    * and the lists as one value for the call. Throws on the driver for an
    * index without them. */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
          bcCtx: Broadcast[ConnCtx], method: GraphMethod, bucketing: Boolean,
          numBuckets: Int = DBSCANConfig.DefaultBuckets, par: Int = 0): (Array[Int], GraphStats) =
    Par.sharing(sc) { share =>
      val lists = CellIndex.listsOf(bcIdx.value)
      val (comp, stats, _) = run(sc, bcIdx, share((bcFlags.value, bcCtx.value, lists)), method, bucketing,
        numBuckets, Array.emptyIntArray, par)
      (comp, stats)
    }

  /** Returns (cluster id per cell, dense in [0, k) in cell order, -1 for
    * non-core cells; stats; the hits of the non-core points of the cells
    * `border`, one block per last-round task), from MarkCore's output
    * `bcMarked`: the core flags, the context and the cells' neighbor lists
    * ([[MarkCore.withCtx]]). */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex],
          bcMarked: Broadcast[(Array[Boolean], ConnCtx, Neighbors)], method: GraphMethod,
          bucketing: Boolean, numBuckets: Int, border: Array[Int],
          par: Int): (Array[Int], GraphStats, Array[ClusterBorder.Hits]) = {
    val idx = bcIdx.value
    val (flags, ctx, _) = bcMarked.value
    val m = idx.numCells
    val uf = new UnionFind(m)
    val delaunay = if (method == DelaunayGraph) Some(runDelaunay(idx, flags, ctx, uf)) else None
    // Core cells by core count, descending (paper's SortBySize), ties by
    // id: each packed as (−count, id) into one Long, for a primitive sort.
    val packed = new scala.collection.mutable.ArrayBuilder.ofLong
    var c = 0
    while (c < m) { if (ctx.coreCount(c) > 0) packed += (-ctx.coreCount(c).toLong << 32) | c; c += 1 }
    val keys = packed.result()
    if (delaunay.isEmpty) java.util.Arrays.sort(keys)
    val order = new Array[Int](if (delaunay.isEmpty) keys.length else 0) // Delaunay's round: no owners
    c = 0
    while (c < order.length) { order(c) = keys(c).toInt; c += 1 } // the low half: the id
    val rounds = if (keys.isEmpty) 0 else if (bucketing && delaunay.isEmpty) numBuckets else 1
    val hits = Array.newBuilder[ClusterBorder.Hits]
    var candidate = 0L; var run = 0L; var edges = 0L
    for (j <- 0 until rounds) {
      // Each unordered pair is owned by its later cell in `order`: owner
      // g takes as candidates the neighbors h before it (more core points,
      // or as many and a smaller id), so a pair is considered exactly
      // once, in its owner's round. Each task keeps one union-find per
      // round over the snapshot's component ids, and the owners of its
      // part walk their neighbor lists in turn (paper Alg. 3 line 5 is
      // a plain `for`): a query is pruned when the two components — as
      // of the start of the round, joined by every link the task found
      // earlier in the round — are already connected. Tasks evaluate in
      // parallel. The border cells are tested once, in the last round.
      // The snapshot (m ints) rides in the job's closure, as `order` and
      // the border cells do: Spark ships a stage's closure to each task
      // anyway, and a broadcast of it would cost one more per round.
      val cells = if (j == rounds - 1) border else Array.emptyIntArray
      val snap = uf.roots()
      val blocks = Par.slices2(sc, order.length, cells.length, par) { (from, until, bFrom, bUntil) =>
        val (i, (fl, c, nb), local) = (bcIdx.value, bcMarked.value, new UnionFind(m))
        val links = new scala.collection.mutable.ArrayBuilder.ofInt // (owner, neighbor) pairs
        var candidates = 0L; var queries = 0L
        val len = (until - from).toLong
        for (g <- order.slice(from + (len * j / rounds).toInt, from + (len * (j + 1) / rounds).toInt)) {
          var k = nb.start(g)
          while (k < nb.start(g + 1)) {
            val h = nb.nbrs(k)
            if (c.coreCount(h) > c.coreCount(g) || (c.coreCount(h) == c.coreCount(g) && h < g)) {
              candidates += 1
              if (local.find(snap(g)) != local.find(snap(h))) {
                queries += 1
                if (CellGraph.connected(i, c, method, g, h, fl)) {
                  local.union(snap(g), snap(h))
                  links.addOne(g).addOne(h)
                }
              }
            }
            k += 1
          }
        }
        (links.result(), candidates, queries,
          ClusterBorder.hits(i, nb, fl, h => if (c.coreCount(h) > 0) local.find(snap(h)) else -1, cells,
            bFrom, bUntil))
      }
      blocks.foreach { case (links, c, q, h) =>
        candidate += c
        run += q
        edges += links.length / 2
        hits += h
        var k = 0
        while (k < links.length) { uf.union(links(k), links(k + 1)); k += 2 }
      }
    }
    (uf.labels(ctx.coreCount(_) > 0)._1, delaunay.getOrElse(GraphStats(m, order.length, candidate, run, edges)),
      hits.result())
  }

  /** Delaunay-triangulation cell graph (2D): triangulate all core points on
    * the driver, then keep the edges of length ≤ ε whose endpoints lie in
    * different cells — each links two cells. Filtering is O(edges) arithmetic,
    * so it runs on the driver too. Unions the linked cells in `uf`. */
  private def runDelaunay(idx: CellIndex, flags: Array[Boolean], ctx: ConnCtx,
                          uf: UnionFind): GraphStats = {
    require(idx.d == 2, "Delaunay cell graph is 2D-only")
    val m = idx.numCells
    // Gather the core points' coordinates and cells, in cell order.
    val k = ctx.coreCount.sum
    val (px, py, cellOf) = (new Array[Double](k), new Array[Double](k), new Array[Int](k))
    val (start, ids, xs) = (idx.start, idx.ids, idx.coords)
    var (c, p, i) = (0, 0, 0)
    while (p < start(m)) { // cells are contiguous position ranges from 0
      while (start(c + 1) <= p) c += 1 // the cell of position p
      if (flags(ids(p))) { px(i) = xs(2 * p); py(i) = xs(2 * p + 1); cellOf(i) = c; i += 1 }
      p += 1
    }
    val dt = new Delaunay(px, py).edges()
    val eps2 = idx.eps * idx.eps
    val linked = scala.collection.mutable.HashSet[(Int, Int)]() // distinct ordered cell pairs
    dt.foreach { case (a, b) =>
      val dx = px(a) - px(b); val dy = py(a) - py(b)
      if (cellOf(a) != cellOf(b) && dx * dx + dy * dy <= eps2) {
        linked += ((cellOf(a), cellOf(b)))
        uf.union(cellOf(a), cellOf(b))
      }
    }
    val numCoreCells = (0 until m).count(ctx.coreCount(_) > 0)
    GraphStats(m, numCoreCells, dt.length, dt.length, linked.size)
  }
}
