package repro.core

import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.geometry.QuadTree

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
  * beyond the broadcast [[CellIndex]]. Built once after MarkCore. */
final class ConnCtx(
    val coreCount: Array[Int],
    val coreLo: Array[Array[Double]],  // bbox of each cell's core points (null if none)
    val coreHi: Array[Array[Double]],
    val coreQt: Array[QuadTree],       // per-core-cell quadtree over core points (null unless qt/approx)
    val sortedBy0: Array[Array[Pt]],   // core points sorted by axis 0 (null unless usec)
    val sortedBy1: Array[Array[Pt]],
) extends Serializable

object ConnCtx {

  /** Assemble the context. Quadtree / sorted-array builds run distributed. */
  def build(sc: SparkContext, bcIdx: Broadcast[CellIndex], bcFlags: Broadcast[Array[Boolean]],
            method: GraphMethod, par: Int = 0): ConnCtx = {
    val idx = bcIdx.value
    val flags = bcFlags.value
    val m = idx.numCells
    val coreCount = new Array[Int](m)
    val coreLo = new Array[Array[Double]](m)
    val coreHi = new Array[Array[Double]](m)
    val cps = new Array[Int](idx.ids.length) // one cell's core positions at a time
    var c = 0
    while (c < m) {
      var k = 0; var p = idx.start(c); val end = idx.start(c + 1)
      while (p < end) { if (flags(idx.ids(p))) { cps(k) = p; k += 1 }; p += 1 }
      coreCount(c) = k
      if (k > 0) {
        val bb = BBox.of(idx.coords, idx.d, cps, 0, k)
        coreLo(c) = bb.lo; coreHi(c) = bb.hi
      }
      c += 1
    }
    // Per-core-cell builds run over the core cells only (most cells are
    // noise); `byCell` places their results at the cell ids.
    val coreCells = (0 until m).filter(coreCount(_) > 0)
    def byCell[T: ClassTag](built: Array[T]): Array[T] = {
      val out = new Array[T](m)
      coreCells.indices.foreach(i => out(coreCells(i)) = built(i))
      out
    }

    val qts = method match {
      case QtGraph | ApproxGraph(_) =>
        val minSide = method match {
          case ApproxGraph(rho) => rho * idx.cellSide // ρ·ε/√d
          case _                => 0.0
        }
        byCell(Par.perCell(sc, coreCells, par) { c =>
          val i = bcIdx.value
          val cps = Array.range(i.start(c), i.start(c + 1)).filter(p => bcFlags.value(i.ids(p)))
          Some(QuadTree.over(i.coords, i.d, cps, i.qtLo(c), i.cellSide, minSide))
        })
      case _ => null
    }

    val (s0, s1) = method match {
      case UsecGraph =>
        require(idx.d == 2, "USEC cell graph is 2D-only")
        val sorted = Par.perCell(sc, coreCells, par) { c =>
          val cps = bcIdx.value.pts(c).filter(p => bcFlags.value(p.id.toInt))
          Some((cps.sortBy(_.x(0)), cps.sortBy(_.x(1))))
        }
        (byCell(sorted.map(_._1)), byCell(sorted.map(_._2)))
      case _ => (null, null)
    }

    new ConnCtx(coreCount, coreLo, coreHi, qts, s0, s1)
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
    var jLo = 0
    var i = 0
    while (i < a.length) {
      val pa = a(i).x
      val t = pa(scanAxis)
      while (jLo < b.length && b(jLo).x(scanAxis) < t - eps) jLo += 1
      var j = jLo
      while (j < b.length && b(j).x(scanAxis) <= t + eps) {
        if (Dist.leq(pa, b(j).x, eps)) return true
        j += 1
      }
      i += 1
    }
    false
  }
}
