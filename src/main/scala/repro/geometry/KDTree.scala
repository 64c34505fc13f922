package repro.geometry

import repro.core.{BBox, Dist, Pt}

/** Static k-d tree over a point set, or a set of boxes, with bucket leaves.
  *
  * Built once (median split on the widest dimension), then queried
  * concurrently — queries never mutate the tree, matching the paper's usage
  * (§5.1 neighbor-cell lookup over cell boxes, and the pointwise-range-query
  * baselines over points).
  *
  * The tree owns its items' boxes as flat arrays `xs` (low corners) and `xh`
  * (high corners), d values per item, in leaf order, and their ids in the
  * same order; a point is the box whose corners are equal, and a point tree
  * shares one array for both. Each split halves a range by count, so the
  * tree's shape depends on n alone: node k covers a range its parent's split
  * fixes, its children are nodes 2k+1 and 2k+2, and it is a leaf when the
  * range holds at most `LeafSize` items. The box of node k, the union of its
  * items' boxes, is the d values at offset k·d of `lo` and `hi`. The tree
  * holds only primitive arrays, so it serializes compactly for a broadcast.
  */
final class KDTree private (xs: Array[Double], xh: Array[Double], ids: Array[Int], d: Int,
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
    * `off` of `q` (inclusive), in leaf order: the boxes within `r` of the
    * point as a box, whose distance to a point is the point distance. */
  def within(q: Array[Double], off: Int, r: Double): Array[Int] = withinBox(q, q, off, r)

  /** Ids of all boxes within Euclidean distance `r` of the box at offset
    * `off` of `qlo` and `qhi` (inclusive: `BBox.sqDistBetween` ≤ r²), in
    * leaf order. Nodes are pruned by the same test; a node's box contains its
    * items' boxes, and rounding is monotone, so no reported box is pruned. */
  def withinBox(qlo: Array[Double], qhi: Array[Double], off: Int, r: Double): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuilder.ofInt
    val r2 = r * r
    def go(k: Int, a: Int, b: Int): Unit =
      if (BBox.sqDistBetween(qlo, qhi, off, lo, hi, k * d, d) <= r2) {
        if (b - a > LeafSize) {
          val mid = (a + b) >>> 1
          go(2 * k + 1, a, mid); go(2 * k + 2, mid, b)
        } else {
          var i = a
          while (i < b) { if (BBox.sqDistBetween(qlo, qhi, off, xs, xh, i * d, d) <= r2) out.addOne(ids(i)); i += 1 }
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
    * point, point i having id `ids(i)`; may be empty. */
  def over(coords: Array[Double], d: Int, ids: Array[Int]): KDTree = overBoxes(coords, coords, d, ids)

  /** The tree over the boxes whose corners are the `d` values at offset i·d
    * of `boxLo` and `boxHi`, box i having id `ids(i)`; may be empty. O(n log
    * n): each level selects its medians by low corner in place and scans its
    * boxes once for the node boxes. */
  def overBoxes(boxLo: Array[Double], boxHi: Array[Double], d: Int, ids: Array[Int]): KDTree = {
    def depth(n: Int): Int = if (n <= LeafSize) 0 else 1 + depth(n - n / 2)
    val slots = (2 << depth(ids.length)) - 1
    val lo = new Array[Double](slots * d)
    val hi = new Array[Double](slots * d)
    val order = Array.range(0, ids.length) // reordered in place into leaf order
    def node(k: Int, a: Int, b: Int): Unit = {
      // The union of the boxes; an empty tree's root gets the empty box
      // (+∞, −∞), which is infinitely far from everything.
      val box = BBox.of(boxLo, boxHi, d, order, a, b)
      System.arraycopy(box.lo, 0, lo, k * d, d)
      System.arraycopy(box.hi, 0, hi, k * d, d)
      if (b - a > LeafSize) {
        val axis = (0 until d).maxBy(j => box.hi(j) - box.lo(j))
        val mid = (a + b) >>> 1
        select(order, a, b - 1, mid, p => boxLo(p * d + axis))
        node(2 * k + 1, a, mid); node(2 * k + 2, mid, b)
      }
    }
    node(0, 0, ids.length)
    def leafOrder(xs: Array[Double]) = {
      val out = new Array[Double](ids.length * d)
      for (i <- order.indices) System.arraycopy(xs, order(i) * d, out, i * d, d)
      out
    }
    val xs = leafOrder(boxLo)
    new KDTree(xs, if (boxHi eq boxLo) xs else leafOrder(boxHi), order.map(ids), d, lo, hi)
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
