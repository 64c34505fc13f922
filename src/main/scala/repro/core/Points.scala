package repro.core

/** A point in d-dimensional Euclidean space with a stable global id.
  *
  * Ids must be dense in `[0, n)` for a dataset of n points — every stage of
  * the pipeline (core flags, cluster labels, border sets) indexes plain
  * arrays by point id, mirroring the paper's shared-memory layout. Cell
  * construction rejects any other id set.
  */
final case class Pt(id: Long, x: Array[Double]) extends Serializable {
  /** Dimensionality of the point. */
  def d: Int = x.length
  override def toString: String = s"Pt($id, [${x.mkString(",")}])"
}

/** Primitive-loop Euclidean distance helpers used in every hot path. */
object Dist {
  /** Squared Euclidean distance between two coordinate vectors. */
  def sq(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = a(i) - b(i); s += t * t; i += 1 }
    s
  }

  /** `d(a,b) <= eps` with an early exit once the partial sum exceeds eps^2. */
  def leq(a: Array[Double], b: Array[Double], eps: Double): Boolean = leq(a, 0, b, 0, a.length, eps)

  /** `leq` on the d coordinates at offset `i` of `a` and offset `j` of `b` —
    * points in flat coordinate arrays, compared in place. */
  def leq(a: Array[Double], i: Int, b: Array[Double], j: Int, d: Int, eps: Double): Boolean = {
    val e2 = eps * eps
    var s = 0.0; var k = 0
    while (k < d) {
      val t = a(i + k) - b(j + k); s += t * t
      if (s > e2) return false
      k += 1
    }
    true
  }
}

/** Axis-aligned bounding box, closed on both sides. */
final case class BBox(lo: Array[Double], hi: Array[Double]) extends Serializable {
  def d: Int = lo.length

  /** Squared distance from the point at offset `off` of a flat coordinate
    * array to the nearest point of the box (0 if inside). */
  def minSqDistTo(xs: Array[Double], off: Int): Double = BBox.minSqDistTo(lo, hi, 0, d, xs, off)

  def center: Array[Double] = {
    val c = new Array[Double](d)
    var i = 0; while (i < d) { c(i) = (lo(i) + hi(i)) / 2; i += 1 }
    c
  }
}

/** Box distances on flat arrays: a box is the `d` values at offset `b` of
  * `lo` and of `hi` (m boxes of d values each), a point the `d` values at
  * offset `off` of `xs`. The k-d tree, the cell index and `BBox`'s
  * `minSqDistTo` all call these. */
object BBox {

  /** Squared distance from the point to the nearest point of the box. */
  def minSqDistTo(lo: Array[Double], hi: Array[Double], b: Int, d: Int,
                  xs: Array[Double], off: Int): Double = {
    var s = 0.0; var j = 0
    while (j < d) {
      val v = xs(off + j); val l = lo(b + j); val h = hi(b + j)
      val t = if (v < l) l - v else if (v > h) v - h else 0.0
      s += t * t; j += 1
    }
    s
  }

  /** Squared distance from the point to the farthest point of the box. */
  def maxSqDistTo(lo: Array[Double], hi: Array[Double], b: Int, d: Int,
                  xs: Array[Double], off: Int): Double = {
    var s = 0.0; var j = 0
    while (j < d) {
      val v = xs(off + j)
      val t = math.max(math.abs(v - lo(b + j)), math.abs(v - hi(b + j)))
      s += t * t; j += 1
    }
    s
  }

  /** Squared min distance between the box at `a` of (lo, hi) and the box at
    * `b` of (lo2, hi2); 0 if they intersect. */
  def sqDistBetween(lo: Array[Double], hi: Array[Double], a: Int,
                    lo2: Array[Double], hi2: Array[Double], b: Int, d: Int): Double = {
    var s = 0.0; var j = 0
    while (j < d) {
      val t =
        if (hi(a + j) < lo2(b + j)) lo2(b + j) - hi(a + j)
        else if (hi2(b + j) < lo(a + j)) lo(a + j) - hi2(b + j)
        else 0.0
      s += t * t; j += 1
    }
    s
  }

  /** Tight bounding box of the points at positions `pos(from until until)`
    * of a flat coordinate array with `d` values per point; no positions give
    * the empty box (+∞, −∞). */
  def of(coords: Array[Double], d: Int, pos: Array[Int], from: Int, until: Int): BBox =
    of(coords, coords, d, pos, from, until)

  /** The union of the boxes at positions `pos(from until until)` of flat
    * arrays of low and high corners with `d` values per box; a point is the
    * box whose corners are equal. */
  def of(boxLo: Array[Double], boxHi: Array[Double], d: Int, pos: Array[Int], from: Int, until: Int): BBox = {
    val lo = Array.fill(d)(Double.PositiveInfinity)
    val hi = Array.fill(d)(Double.NegativeInfinity)
    var i = from
    while (i < until) {
      val p = pos(i)
      var j = 0
      while (j < d) {
        if (boxLo(p * d + j) < lo(j)) lo(j) = boxLo(p * d + j)
        if (boxHi(p * d + j) > hi(j)) hi(j) = boxHi(p * d + j)
        j += 1
      }
      i += 1
    }
    BBox(lo, hi)
  }
}
