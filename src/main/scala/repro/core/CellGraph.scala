package repro.core

import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.geometry.{KDTree, QuadTree}

/** Which cell-construction method to use (paper §4.1 / §4.2). */
sealed trait CellMethod extends Serializable
case object GridCells extends CellMethod
/** 2D-only x-strip / y-box construction. */
case object BoxCells extends CellMethod

/** How MarkCore implements RangeCount (paper §4.3 / §5.2). */
sealed trait CoreMethod extends Serializable
case object ScanCore extends CoreMethod
case object QtCore extends CoreMethod

/** How ClusterCore decides whether two core cells are connected (§4.4/§5.2). */
sealed trait GraphMethod extends Serializable
/** Bichromatic closest pair with ε-filtering and early termination. */
case object BcpGraph extends GraphMethod
/** Exact RangeCount on a quadtree over each cell's core points. */
case object QtGraph extends GraphMethod
/** Unit-spherical emptiness check with line separation (2D only). */
case object UsecGraph extends GraphMethod
/** Delaunay triangulation over all core points (2D only). */
case object DelaunayGraph extends GraphMethod
/** ρ-approximate RangeCount on a depth-limited quadtree (Gan & Tao). */
final case class ApproxGraph(rho: Double) extends GraphMethod {
  require(rho >= 0 && !rho.isInfinite, s"rho must be finite and >= 0, got $rho")
}

/** Per-run connectivity context: everything a distributed pair-query needs
  * beyond the broadcast [[CellIndex]]. MarkCore's job builds it: each task
  * sets up its core cells' parts (see `ConnCtx.pass`). */
final class ConnCtx(
    val coreCount: Array[Int],
    val coreLo: Array[Array[Double]],  // bbox of each cell's core points (null if none)
    val coreHi: Array[Array[Double]],
    val coreQt: Array[QuadTree],       // per-core-cell quadtree over core points (null unless qt/approx)
    val sortedBy0: Array[Array[Pt]],   // core points sorted by axis 0 (null unless usec)
    val sortedBy1: Array[Array[Pt]],
) extends Serializable

object ConnCtx {

  /** One task's share of [[pass]] over its cells `[from, until)`, flat: the
    * cells' neighbor lists, the ids of their core points, each cell's core
    * count, and per core cell in order its core box (d values each of `lo`
    * and `hi`) and its quadtree or sorted arrays, when `method` queries
    * them. */
  private final class Part(val lists: Neighbors, val coreIds: Array[Int], val counts: Array[Int],
                           val lo: Array[Double], val hi: Array[Double], val qts: Array[QuadTree],
                           val s0: Array[Array[Pt]], val s1: Array[Array[Pt]]) extends Serializable

  /** The context from core flags already known, set up by the same pass. */
  def build(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
            method: GraphMethod, par: Int = 0): ConnCtx =
    pass(sc, bcIdx, method, par) {
      val (i, fl) = (bcIdx.value, bcFlags.value)
      (c, _, _, _, out) => {
        var k = 0; var p = i.start(c)
        while (p < i.start(c + 1)) { if (fl(i.ids(p))) { out(k) = p; k += 1 }; p += 1 }
        k
      }
    }._2

  /** The one per-cell pass of MarkCore and the context's set-up (paper Alg.
    * 1–3: both are flat loops over cells): one [[Par.slices]] job over the
    * cells, each task first taking its cells' neighbor lists and then
    * opening `mark` once. The k-d tree over the cell boxes is built here and
    * broadcast for this job alone, and each task looks its cells up in it
    * (`CellIndex.listsIn`); lists the index may hold are not read.
    * `mark(c, nbrs, from, until, out)`, whose `nbrs[from, until)` is cell
    * c's neighbor list, writes c's core positions, ascending, to the start
    * of `out` and returns their number; the same task then sets up the
    * cell's part of the context from them. Returns the core flag of every
    * point id, the context and every cell's neighbor lists. */
  private[core] def pass(sc: SparkContext, bcIdx: Broadcast[CellIndex], method: GraphMethod, par: Int)(
      mark: => (Int, Array[Int], Int, Int, Array[Int]) => Int): (Array[Boolean], ConnCtx, Neighbors) = {
    val idx = bcIdx.value
    require(method != UsecGraph || idx.d == 2, "USEC cell graph is 2D-only")
    Par.sharing(sc) { share =>
      val bcTree = share(CellIndex.boxTree(idx.cellLo, idx.cellHi, idx.d))
      assemble(idx, method, Par.slices(sc, idx.numCells, par)((from, until) =>
        part(bcIdx.value, bcTree.value, method, from, until, mark)))
    }
  }

  /** Marks cells `[from, until)` with `mark`, their lists looked up in
    * `tree`, and sets up their core cells:
    * the core box always; the quadtree over the core points for the
    * quadtree graphs (ρ-approximate for [[ApproxGraph]]); the core points
    * sorted by each axis for USEC. */
  private def part(idx: CellIndex, tree: KDTree, method: GraphMethod, from: Int, until: Int,
                   mark: (Int, Array[Int], Int, Int, Array[Int]) => Int): Part = {
    val nb = CellIndex.listsIn(tree, idx.cellLo, idx.cellHi, idx.d, idx.eps, from, until)
    val d = idx.d
    val minSide = method match {
      case ApproxGraph(rho) => rho * idx.cellSide // ρ·ε/√d
      case _                => 0.0
    }
    val cps = new Array[Int]((from until until).foldLeft(0)((s, c) => math.max(s, idx.size(c))))
    val counts = new Array[Int](until - from)
    val (ids, lo, hi) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble,
      new mutable.ArrayBuilder.ofDouble)
    val (qts, s0, s1) = (mutable.ArrayBuilder.make[QuadTree], mutable.ArrayBuilder.make[Array[Pt]],
      mutable.ArrayBuilder.make[Array[Pt]])
    var c = from
    while (c < until) {
      val k = mark(c, nb.nbrs, nb.start(c - from), nb.start(c + 1 - from), cps)
      counts(c - from) = k
      if (k > 0) {
        var i = 0
        while (i < k) { ids += idx.ids(cps(i)); i += 1 }
        val bb = BBox.of(idx.coords, d, cps, 0, k)
        lo ++= bb.lo; hi ++= bb.hi
        method match {
          case QtGraph | ApproxGraph(_) =>
            qts += QuadTree.over(idx.coords, d, cps.take(k), idx.qtLo(c), idx.cellSide, minSide)
          case UsecGraph =>
            val pts = Array.tabulate(k)(i => Pt(idx.ids(cps(i)), idx.coords.slice(cps(i) * d, cps(i) * d + d)))
            s0 += pts.sortBy(_.x(0)); s1 += pts.sortBy(_.x(1))
          case _ =>
        }
      }
      c += 1
    }
    new Part(nb, ids.result(), counts, lo.result(), hi.result(), qts.result(), s0.result(), s1.result())
  }

  /** The flags, the context and the neighbor lists from the parts of
    * consecutive cell ranges, in cell order. */
  private def assemble(idx: CellIndex, method: GraphMethod,
                       parts: Array[Part]): (Array[Boolean], ConnCtx, Neighbors) = {
    val flags = new Array[Boolean](idx.n.toInt)
    parts.foreach(_.coreIds.foreach(flags(_) = true))
    val counts = CellIndex.cat(parts)(_.counts)
    val core = counts.indices.filter(counts(_) > 0)
    // The i-th core cell's value of `all` placed at its cell id.
    def byCell[T: ClassTag](all: Array[T]): Array[T] = {
      val out = new Array[T](counts.length)
      core.indices.foreach(i => out(core(i)) = all(i))
      out
    }
    val d = idx.d
    def boxes(xs: Array[Double]) = byCell(Array.tabulate(core.length)(i => xs.slice(i * d, i * d + d)))
    val qts = method match {
      case QtGraph | ApproxGraph(_) => byCell(CellIndex.cat(parts)(_.qts))
      case _                        => null
    }
    val (s0, s1) = method match {
      case UsecGraph => (byCell(CellIndex.cat(parts)(_.s0)), byCell(CellIndex.cat(parts)(_.s1)))
      case _         => (null, null)
    }
    (flags, new ConnCtx(counts, boxes(CellIndex.cat(parts)(_.lo)), boxes(CellIndex.cat(parts)(_.hi)), qts, s0, s1),
      new Neighbors(CellIndex.cat(parts)(_.lists.counts), CellIndex.cat(parts)(_.lists.nbrs)))
  }
}

/** The per-pair connectivity queries of ClusterCore (paper §4.4, §5.2). */
object CellGraph {

  /** Should core cells g and h be linked in the cell graph? */
  def connected(idx: CellIndex, ctx: ConnCtx, method: GraphMethod, g: Int, h: Int,
                flags: Array[Boolean]): Boolean = method match {
    case BcpGraph       => bcpConnected(idx, ctx, g, h, flags)
    case QtGraph | ApproxGraph(_) => qtConnected(idx, ctx, g, h, flags)
    case UsecGraph      => usecConnected(idx, ctx, g, h)
    case DelaunayGraph  =>
      throw new IllegalArgumentException("Delaunay builds the whole graph at once")
  }

  /** Positions of cell c's core points that lie within ε of the other cell's
    * core bbox — the paper's (Gan & Tao's) filtering optimization before the
    * BCP scan. */
  private def filteredCore(idx: CellIndex, ctx: ConnCtx, c: Int, other: Int,
                           flags: Array[Boolean]): Array[Int] = {
    val bb = BBox(ctx.coreLo(other), ctx.coreHi(other))
    val e2 = idx.eps * idx.eps
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    var p = idx.start(c)
    while (p < idx.start(c + 1)) {
      if (flags(idx.ids(p)) && bb.minSqDistTo(idx.coords, p * idx.d) <= e2) out += p
      p += 1
    }
    out.result()
  }

  /** BCP with filtering + early termination. The paper splits one pair into
    * fixed-size blocks run in parallel; here the parallelism is across pairs (one
    * Spark task evaluates whole pairs), so a plain early-exit scan is the
    * faithful per-pair kernel. */
  def bcpConnected(idx: CellIndex, ctx: ConnCtx, g: Int, h: Int,
                   flags: Array[Boolean]): Boolean = {
    val a = filteredCore(idx, ctx, g, h, flags)
    if (a.isEmpty) return false
    val b = filteredCore(idx, ctx, h, g, flags)
    if (b.isEmpty) return false
    val (d, xs, eps) = (idx.d, idx.coords, idx.eps)
    var i = 0
    while (i < a.length) {
      var j = 0
      while (j < b.length) {
        if (Dist.leq(xs, a(i) * d, xs, b(j) * d, d, eps)) return true
        j += 1
      }
      i += 1
    }
    false
  }

  /** Connectivity via (approximate) RangeCount on the target's core quadtree:
    * connected iff some core point of one cell has a non-zero (approximate)
    * count in the other (paper §5.2). The tree's `minSide` makes the count
    * exact or ρ-approximate. Queries from the smaller cell. */
  def qtConnected(idx: CellIndex, ctx: ConnCtx, g: Int, h: Int,
                  flags: Array[Boolean]): Boolean = {
    val (qSide, tSide) = if (ctx.coreCount(g) <= ctx.coreCount(h)) (g, h) else (h, g)
    val queries = filteredCore(idx, ctx, qSide, tSide, flags)
    val qt = ctx.coreQt(tSide)
    var i = 0
    while (i < queries.length) {
      if (qt.count(idx.coords, queries(i) * idx.d, idx.eps, 1) > 0) return true
      i += 1
    }
    false
  }

  /** USEC with line separation (2D). The cells' boxes are disjoint, so some
    * axis separates them; we scan both cells' core points in sorted order
    * along the *other* axis with a ±ε sliding window and early-exit on the
    * first point falling inside the union of ε-balls (see DESIGN.md §5 for
    * the wavefront substitution). */
  def usecConnected(idx: CellIndex, ctx: ConnCtx, g: Int, h: Int): Boolean = {
    // Separating axis: tight core bboxes are disjoint in the axis where the
    // cells' key intervals differ; fall back to axis of largest gap.
    val gLo = ctx.coreLo(g); val gHi = ctx.coreHi(g)
    val hLo = ctx.coreLo(h); val hHi = ctx.coreHi(h)
    val sepAxis =
      if (gHi(0) < hLo(0) || hHi(0) < gLo(0)) 0
      else 1
    val scanAxis = 1 - sepAxis
    val a = if (scanAxis == 0) ctx.sortedBy0(g) else ctx.sortedBy1(g)
    val b = if (scanAxis == 0) ctx.sortedBy0(h) else ctx.sortedBy1(h)
    val eps = idx.eps
    val e2 = eps * eps
    // The window holds the b within ε of t on the scan axis, tested as
    // `Dist.leq` tests that axis: a float sum of non-negative terms is never
    // below one of them, so a b whose squared difference exceeds ε² fails
    // it. Float subtraction and squaring are monotone, so the window slides.
    def beyond(lo: Double, hi: Double) = lo < hi && (hi - lo) * (hi - lo) > e2
    var jLo = 0
    var i = 0
    while (i < a.length) {
      val pa = a(i).x
      val t = pa(scanAxis)
      while (jLo < b.length && beyond(b(jLo).x(scanAxis), t)) jLo += 1
      var j = jLo
      while (j < b.length && !beyond(t, b(j).x(scanAxis))) {
        if (Dist.leq(pa, b(j).x, eps)) return true
        j += 1
      }
      i += 1
    }
    false
  }
}
