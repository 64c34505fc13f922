package repro.geometry

import repro.core.{BBox, Dist, Pt}

/** Static k-d tree over a point set with bucket leaves.
  *
  * Built once (median split on the widest dimension), then queried
  * concurrently — queries never mutate the tree, matching the paper's usage
  * (§5.1 neighbor-cell lookup, and the pointwise-range-query baselines).
  *
  * The tree owns one flat array `xs` of its points' coordinates (d values per
  * point) in leaf order and their ids in the same order. Each split halves a
  * range by count, so the tree's shape depends on n alone: node k covers a
  * range its parent's split fixes, its children are nodes 2k+1 and 2k+2, and
  * it is a leaf when the range holds at most `LeafSize` points. The tight box
  * of node k is the d values at offset k·d of `lo` and `hi`. The tree holds
  * only primitive arrays, so it serializes compactly for a broadcast.
  */
final class KDTree private (xs: Array[Double], ids: Array[Int], d: Int,
                            lo: Array[Double], hi: Array[Double]) extends Serializable {
  import KDTree.LeafSize

  /** Number of points within Euclidean distance `r` of the point at offset
    * `off` of `q` (inclusive). A node whose box lies inside the ball counts
    * whole. */
  def countWithin(q: Array[Double], off: Int, r: Double): Int = {
    val r2 = r * r
    def go(k: Int, a: Int, b: Int): Int =
      if (BBox.minSqDistTo(lo, hi, k * d, d, q, off) > r2) 0
      else if (BBox.maxSqDistTo(lo, hi, k * d, d, q, off) <= r2) b - a
      else if (b - a > LeafSize) {
        val mid = (a + b) >>> 1
        go(2 * k + 1, a, mid) + go(2 * k + 2, mid, b)
      } else {
        var c = 0; var i = a
        while (i < b) { if (Dist.leq(xs, i * d, q, off, d, r)) c += 1; i += 1 }
        c
      }
    go(0, 0, size)
  }

  /** Ids of all points within Euclidean distance `r` of the point at offset
    * `off` of `q` (inclusive), in leaf order. */
  def within(q: Array[Double], off: Int, r: Double): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    val r2 = r * r
    def go(k: Int, a: Int, b: Int): Unit =
      if (BBox.minSqDistTo(lo, hi, k * d, d, q, off) <= r2) {
        if (b - a > LeafSize) {
          val mid = (a + b) >>> 1
          go(2 * k + 1, a, mid); go(2 * k + 2, mid, b)
        } else {
          var i = a
          while (i < b) { if (Dist.leq(xs, i * d, q, off, d, r)) out += ids(i); i += 1 }
        }
      }
    go(0, 0, size)
    out.result()
  }

  def countWithin(q: Array[Double], r: Double): Int = countWithin(q, 0, r)
  def within(q: Array[Double], r: Double): Array[Int] = within(q, 0, r)

  def size: Int = ids.length
}

object KDTree {
  private val LeafSize = 16

  /** The tree over `pts`, with their ids; may be empty. */
  def build(pts: Array[Pt]): KDTree =
    over(pts.flatMap(_.x), if (pts.isEmpty) 0 else pts(0).d, pts.map(_.id.toInt))

  /** The tree over the points of a flat coordinate array with `d` values per
    * point, point i having id `ids(i)`; may be empty. O(n log n): each level
    * selects its medians in place and scans its points once for the boxes. */
  def over(coords: Array[Double], d: Int, ids: Array[Int]): KDTree = {
    def depth(n: Int): Int = if (n <= LeafSize) 0 else 1 + depth(n - n / 2)
    val slots = (2 << depth(ids.length)) - 1
    val lo = new Array[Double](slots * d)
    val hi = new Array[Double](slots * d)
    val order = Array.range(0, ids.length) // reordered in place into leaf order
    def node(k: Int, a: Int, b: Int): Unit = {
      // The tight box; an empty tree's root gets the empty box (+∞, −∞),
      // which is infinitely far from every point.
      val box = BBox.of(coords, d, order, a, b)
      System.arraycopy(box.lo, 0, lo, k * d, d)
      System.arraycopy(box.hi, 0, hi, k * d, d)
      if (b - a > LeafSize) {
        val axis = (0 until d).maxBy(j => box.hi(j) - box.lo(j))
        val mid = (a + b) >>> 1
        select(order, a, b - 1, mid, p => coords(p * d + axis))
        node(2 * k + 1, a, mid); node(2 * k + 2, mid, b)
      }
    }
    node(0, 0, ids.length)
    val xs = new Array[Double](ids.length * d)
    var i = 0
    while (i < order.length) { System.arraycopy(coords, order(i) * d, xs, i * d, d); i += 1 }
    new KDTree(xs, order.map(ids), d, lo, hi)
  }

  /** Hoare's selection: reorders `order(a..b)` so that position `k` holds the
    * element of rank k - a by `key`, none greater before it and none smaller
    * after it. */
  private def select(order: Array[Int], a0: Int, b0: Int, k: Int, key: Int => Double): Unit = {
    var a = a0; var b = b0
    while (a < b) {
      val pivot = key(order((a + b) >>> 1))
      var i = a; var j = b
      while (i <= j) {
        while (key(order(i)) < pivot) i += 1
        while (key(order(j)) > pivot) j -= 1
        if (i <= j) { val t = order(i); order(i) = order(j); order(j) = t; i += 1; j -= 1 }
      }
      if (k <= j) b = j else if (k >= i) a = i else return
    }
  }
}
