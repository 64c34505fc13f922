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

/** Parallel ClusterCore (paper Alg. 3).
  *
  * Builds the cell graph — an edge between neighboring core cells whose core
  * points come within ε — and returns each cell's connected component as a
  * dense cluster id.
  *
  * Connectivity *queries* are evaluated in parallel in Spark; the union-find
  * over the (small) cell graph lives on the driver. Pairs already in the same
  * component are pruned before evaluation. With `bucketing` (paper §4.4),
  * cells are sorted by core-point count (descending) and processed in
  * batches: big, highly-connected cells union early and prune many later
  * queries — without it, all pairs evaluate in one fully-parallel batch,
  * which is what an unsynchronized parallel execution degrades to.
  */
object ClusterCore {

  /** Returns (cluster id per cell, dense in [0, k) in cell order, -1 for
    * non-core cells; stats). */
  def run(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
          bcCtx: Broadcast[ConnCtx], method: GraphMethod, bucketing: Boolean,
          numBuckets: Int = DBSCANConfig.DefaultBuckets, par: Int = 0): (Array[Int], GraphStats) = {
    val idx = bcIdx.value
    val ctx = bcCtx.value
    val m = idx.numCells
    val p = Par.threads(sc, par)
    val (uf, stats) = method match {
      case DelaunayGraph => runDelaunay(idx, bcFlags.value, ctx)
      case _ =>
        // Rank core cells by core count, descending (paper's SortBySize).
        val coreCells = (0 until m).filter(ctx.coreCount(_) > 0).toArray
        val order = coreCells.sortBy(c => (-ctx.coreCount(c), c))
        val rank = Array.fill(m)(Int.MaxValue)
        order.zipWithIndex.foreach { case (c, r) => rank(c) = r }

        val uf = new UnionFind(m)
        var candidate = 0L; var run = 0L; var edges = 0L
        val batches: Iterator[Array[Int]] =
          if (bucketing) {
            val bs = math.max(1, (order.length + numBuckets - 1) / numBuckets)
            order.grouped(bs)
          } else Iterator.single(order)
        for (batch <- batches) {
          // Each unordered pair is owned by the later-ranked cell, so it is
          // considered exactly once, in its owner's batch. An owner walks its
          // neighbor list *sequentially* (paper Alg. 3 line 5 is a plain
          // `for`): a query is pruned when the target's component — as of the
          // start of the batch, extended by the owner's own links — is
          // already connected to the owner. Owners across a batch evaluate in
          // parallel.
          val owners = batch.iterator.map { g =>
            (g, idx.neighbors(g).filter(h => ctx.coreCount(h) > 0 && rank(h) < rank(g)))
          }.filter(_._2.nonEmpty).toSeq
          candidate += owners.iterator.map(_._2.length.toLong).sum
          if (owners.nonEmpty) {
            val snap = Array.tabulate(m)(uf.find)
            val bcSnap = sc.broadcast(snap)
            // Owners are cheap units; group ~16 per partition so small
            // batches don't pay for dozens of near-empty tasks.
            val parts = Par.parts(owners.length / 16 + 1, p)
            val results = try sc.parallelize(owners, parts).map { case (g, hs) =>
              val snapV = bcSnap.value
              val linked = scala.collection.mutable.HashSet[Int](snapV(g))
              val hits = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
              var queries = 0L
              var i = 0
              while (i < hs.length) {
                val h = hs(i)
                if (!linked.contains(snapV(h))) {
                  queries += 1
                  if (CellGraph.connected(bcIdx.value, bcCtx.value, method, g, h, bcFlags.value)) {
                    linked += snapV(h)
                    hits += ((g, h))
                  }
                }
                i += 1
              }
              (hits.toArray, queries)
            }.collect() finally bcSnap.destroy()
            results.foreach { case (hits, q) =>
              run += q
              edges += hits.length
              hits.foreach { case (g, h) => uf.union(g, h) }
            }
          }
        }
        (uf, GraphStats(m, coreCells.length, candidate, run, edges))
    }
    (uf.labels(ctx.coreCount(_) > 0)._1, stats)
  }

  /** Delaunay-triangulation cell graph (2D): triangulate all core points on
    * the driver, then keep the edges of length ≤ ε whose endpoints lie in
    * different cells — each links two cells. Filtering is O(edges) arithmetic,
    * so it runs on the driver too. */
  private def runDelaunay(idx: CellIndex, flags: Array[Boolean],
                          ctx: ConnCtx): (UnionFind, GraphStats) = {
    require(idx.d == 2, "Delaunay cell graph is 2D-only")
    val m = idx.numCells
    // Gather core points (positions in cell order) with their cell ids.
    val (corePos, cellOf) =
      (for (c <- 0 until m; p <- idx.start(c) until idx.start(c + 1) if flags(idx.ids(p))) yield (p, c))
        .toArray.unzip
    val px = corePos.map(p => idx.coords(2 * p))
    val py = corePos.map(p => idx.coords(2 * p + 1))
    val uf = new UnionFind(m)
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
    (uf, GraphStats(m, numCoreCells, dt.length, dt.length, linked.size))
  }
}
