package repro.geometry

import repro.core.Pt

/** A 2^d-tree ("quadtree" in the paper, §5.2) over the points of one grid
  * cell, supporting exact and ρ-approximate RangeCount queries.
  *
  * The root covers the cell's hypercube of side `ε/√d`; each node splits
  * into up to 2^d equal sub-cells (only non-empty children materialize).
  * Construction stops at `LeafSize` points, or — for the approximate tree —
  * once the side length drops to `minSide = ρ·ε/√d` (paper depth bound
  * `l = 1 + ⌈log2 1/ρ⌉`).
  *
  * The tree owns one flat array `xs` of its points' coordinates (d values per
  * point) in leaf order, so every node covers the points `[from, until)` of
  * it. The child index packs one bit per dimension into 32 bits of a long,
  * which limits the tree to d ≤ 32.
  */
final class QuadTree private (xs: Array[Double], d: Int, root: QuadTree.Node, val minSide: Double)
    extends Serializable {

  /** RangeCount of the point at offset `off` of the flat array `q`: the number
    * of points within `eps` when that is below `limit`, otherwise some value
    * ≥ `limit` (the query visits no more nodes once it reaches `limit`; a
    * leaf is scanned whole, which keeps the scan loop free of that check). A
    * whole node counts when its box lies inside the ε-ball, or when it is a
    * leaf no wider than `minSide` that meets the ε-ball (diagonal ≤ ερ), so
    * on the approximate tree the count lies between the ε-count and the
    * ε(1+ρ)-count. */
  def count(q: Array[Double], off: Int, eps: Double, limit: Int): Int = {
    val e2 = eps * eps
    def go(nd: QuadTree.Node, acc: Int): Int =
      if (nd.minSqDistTo(q, off) > e2) acc
      else if (nd.maxSqDistTo(q, off) <= e2 || (nd.kids == null && nd.side <= minSide))
        acc + nd.until - nd.from
      else if (nd.kids == null) {
        var c = acc; var i = nd.from
        while (i < nd.until) {
          var s = 0.0; var j = 0
          while (j < d) { val t = xs(i * d + j) - q(off + j); s += t * t; j += 1 }
          if (s <= e2) c += 1
          i += 1
        }
        c
      } else {
        var c = acc; var k = 0
        while (c < limit && k < nd.kids.length) { c = go(nd.kids(k), c); k += 1 }
        c
      }
    go(root, 0)
  }

  /** Exact number of points within distance `eps` of `q`. */
  def rangeCount(q: Array[Double], eps: Double): Int = count(q, 0, eps, Int.MaxValue)

  /** True iff some point lies within `eps` of `q`; early exit. */
  def existsWithin(q: Array[Double], eps: Double): Boolean = count(q, 0, eps, 1) > 0

  /** Approximate-count > 0, with early exit: true implies a point within
    * ε(1+ρ); false implies no point within ε. The tree's `minSide` fixes ρ. */
  def approxExists(q: Array[Double], eps: Double, rho: Double): Boolean = count(q, 0, eps, 1) > 0
}

object QuadTree {
  private val LeafSize = 16

  /** A box with corner `lo` and side `side` holding the tree's points
    * `[from, until)`; a leaf has no kids (`kids == null`). */
  final class Node(val lo: Array[Double], val side: Double, val from: Int, val until: Int,
                   val kids: Array[Node]) extends Serializable {
    def minSqDistTo(q: Array[Double], off: Int): Double = {
      var s = 0.0; var i = 0
      while (i < lo.length) {
        val v = q(off + i)
        val t = if (v < lo(i)) lo(i) - v else if (v > lo(i) + side) v - (lo(i) + side) else 0.0
        s += t * t; i += 1
      }
      s
    }
    def maxSqDistTo(q: Array[Double], off: Int): Double = {
      var s = 0.0; var i = 0
      while (i < lo.length) {
        val t = math.max(math.abs(q(off + i) - lo(i)), math.abs(q(off + i) - (lo(i) + side)))
        s += t * t; i += 1
      }
      s
    }
  }

  /** Exact-query tree for a cell with corner `lo` and side `side`. */
  def build(pts: Array[Pt], lo: Array[Double], side: Double): QuadTree =
    buildApprox(pts, lo, side, 0.0)

  /** Approximate-query tree: callers pass `minSide = ρ·ε/√d` directly (root
    * side is ε/√d for grid cells). */
  def buildApprox(pts: Array[Pt], lo: Array[Double], side: Double, minSide: Double): QuadTree =
    over(pts.flatMap(_.x), lo.length, Array.range(0, pts.length), lo, side, minSide)

  /** The tree over the points at positions `pos` of a flat coordinate array
    * with `d` values per point; `minSide = 0` gives the exact tree. */
  def over(coords: Array[Double], d: Int, pos: Array[Int], lo: Array[Double], side: Double,
           minSide: Double = 0.0): QuadTree = {
    require(d <= 32, s"quadtrees support at most 32 dimensions, got d = $d")
    val order = pos.clone() // reordered in place into leaf order
    def node(a: Int, b: Int, lo: Array[Double], side: Double): Node = {
      // Stop on small population, on reaching the approximate resolution, or
      // on a degenerate side (duplicate-point guard).
      if (b - a <= LeafSize || side <= minSide || side < 1e-9) return new Node(lo, side, a, b, null)
      val half = side / 2
      // Group the points by child index (one bit per dimension) with one sort.
      val keys = Array.tabulate(b - a) { i =>
        val p = order(a + i)
        var child = 0L; var j = 0
        while (j < d) {
          if (coords(p * d + j) >= lo(j) + half) child |= 1L << j
          j += 1
        }
        (child << 32) | p
      }
      java.util.Arrays.sort(keys)
      var i = 0
      while (i < keys.length) { order(a + i) = keys(i).toInt; i += 1 }
      val kids = Array.newBuilder[Node]
      i = 0
      while (i < keys.length) {
        val child = keys(i) >>> 32
        var k = i + 1
        while (k < keys.length && keys(k) >>> 32 == child) k += 1
        // All points in one sub-cell: skip the chain node (paper's ≥2-children
        // rule). The approximate tree keeps it to honor the side bound.
        if (i == 0 && k == keys.length && minSide <= 0.0) return node(a, b, childLo(lo, half, child), half)
        kids += node(a + i, a + k, childLo(lo, half, child), half)
        i = k
      }
      new Node(lo, side, a, b, kids.result())
    }
    val root = node(0, order.length, lo, side)
    val xs = new Array[Double](order.length * d)
    var i = 0
    while (i < order.length) { System.arraycopy(coords, order(i) * d, xs, i * d, d); i += 1 }
    new QuadTree(xs, d, root, minSide)
  }

  private def childLo(lo: Array[Double], half: Double, child: Long): Array[Double] = {
    val clo = new Array[Double](lo.length)
    var j = 0
    while (j < lo.length) {
      clo(j) = if ((child & (1L << j)) != 0) lo(j) + half else lo(j)
      j += 1
    }
    clo
  }
}
