package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.geometry.KDTree

/** The cell structure shared by every algorithm variant (paper Alg. 1 line 2).
  *
  * Holds, per non-empty cell: its key, its tight bounding box, its points,
  * and the ids of *neighboring* cells — cells whose boxes are within ε, the
  * only ones that can contain points within ε of this cell's points.
  *
  * Cells are disjoint with per-dimension extent ≤ ε/√d, so all points inside
  * one cell are within ε of each other — the invariant both MarkCore's
  * all-core shortcut and ClusterCore's cell graph rely on.
  *
  * The index is built distributed (cell assignment + grouping runs as a Spark
  * shuffle, playing the role of the paper's work-efficient semisort) and then
  * broadcast, emulating shared memory on the single-node cluster: per-cell
  * tasks get random access to any neighboring cell's points.
  */
final class CellIndex(
    val eps: Double,
    val cellSide: Double,
    val d: Int,
    val n: Long,
    val keys: Array[Vector[Int]],
    val tightLo: Array[Array[Double]],
    val tightHi: Array[Array[Double]],
    val pts: Array[Array[Pt]],
    val neighbors: Array[Array[Int]],
) extends Serializable {

  def numCells: Int = keys.length
  def size(c: Int): Int = pts(c).length
  def bbox(c: Int): BBox = BBox(tightLo(c), tightHi(c))

  /** Allocation-free squared distance from `x` to cell `c`'s tight box —
    * the hot-path bbox prefilter in MarkCore / ClusterBorder. */
  def minSqDistToCell(c: Int, x: Array[Double]): Double = {
    val lo = tightLo(c); val hi = tightHi(c)
    var s = 0.0; var j = 0
    while (j < x.length) {
      val v = x(j)
      val t = if (v < lo(j)) lo(j) - v else if (v > hi(j)) v - hi(j) else 0.0
      s += t * t; j += 1
    }
    s
  }

  /** Root corner for the cell's quadtree (hypercube of side `cellSide`). */
  def qtLo(c: Int): Array[Double] = tightLo(c)

  /** Serialize as flat primitive arrays — the index is broadcast once per
    * run and Java-serializing millions of boxed Pt objects would dominate
    * the runtime of every small benchmark. */
  private def writeReplace(): AnyRef = {
    val m = numCells
    val sizes = Array.tabulate(m)(size)
    val total = sizes.sum
    val ids = new Array[Long](total)
    val coords = new Array[Double](total * d)
    val keysFlat = new Array[Int](m * d)
    val loFlat = new Array[Double](m * d)
    val hiFlat = new Array[Double](m * d)
    var off = 0
    var c = 0
    while (c < m) {
      val ps = pts(c)
      var i = 0
      while (i < ps.length) {
        ids(off + i) = ps(i).id
        System.arraycopy(ps(i).x, 0, coords, (off + i) * d, d)
        i += 1
      }
      var j = 0
      while (j < d) {
        keysFlat(c * d + j) = keys(c)(j)
        loFlat(c * d + j) = tightLo(c)(j)
        hiFlat(c * d + j) = tightHi(c)(j)
        j += 1
      }
      off += ps.length
      c += 1
    }
    val nbrSizes = Array.tabulate(m)(neighbors(_).length)
    val nbrs = neighbors.flatten
    CellIndex.Packed(eps, cellSide, d, n, sizes, keysFlat, ids, coords,
      loFlat, hiFlat, nbrSizes, nbrs)
  }
}

object CellIndex {

  /** Flat-array serialization proxy for [[CellIndex]] (see writeReplace). */
  private[core] final case class Packed(
      eps: Double, side: Double, d: Int, n: Long, sizes: Array[Int],
      keysFlat: Array[Int], ids: Array[Long], coords: Array[Double],
      loFlat: Array[Double], hiFlat: Array[Double],
      nbrSizes: Array[Int], nbrs: Array[Int]) extends Serializable {
    private def readResolve(): AnyRef = {
      val m = sizes.length
      val keys = Array.tabulate(m)(c => keysFlat.slice(c * d, c * d + d).toVector)
      val lo = Array.tabulate(m)(c => loFlat.slice(c * d, c * d + d))
      val hi = Array.tabulate(m)(c => hiFlat.slice(c * d, c * d + d))
      val pts = new Array[Array[Pt]](m)
      var off = 0
      var c = 0
      while (c < m) {
        pts(c) = Array.tabulate(sizes(c)) { i =>
          Pt(ids(off + i), java.util.Arrays.copyOfRange(coords, (off + i) * d, (off + i) * d + d))
        }
        off += sizes(c)
        c += 1
      }
      val neighbors = new Array[Array[Int]](m)
      var noff = 0
      c = 0
      while (c < m) {
        neighbors(c) = java.util.Arrays.copyOfRange(nbrs, noff, noff + nbrSizes(c))
        noff += nbrSizes(c)
        c += 1
      }
      new CellIndex(eps, side, d, n, keys, lo, hi, pts, neighbors)
    }
  }

  /** Cell side length ε/√d (diagonal exactly ε). */
  def sideFor(eps: Double, d: Int): Double = eps / math.sqrt(d.toDouble)

  /** Integer grid key of a point. */
  def gridKey(x: Array[Double], side: Double): Vector[Int] = {
    val k = new Array[Int](x.length)
    var j = 0
    while (j < x.length) { k(j) = math.floor(x(j) / side).toInt; j += 1 }
    k.toVector
  }

  /** Catalyst-facing cell assignment: adds a `cell` array<int> column. Used
    * by tests to cross-check the grid against DuckDB's floor arithmetic. */
  def assignCellsDF(df: DataFrame, cols: Seq[String], eps: Double): DataFrame = {
    val side = sideFor(eps, cols.size)
    df.withColumn("cell", array(cols.map(c => floor(col(c) / lit(side)).cast("int")): _*))
  }

  /** Grid-based construction (paper §4.1, used for all d). */
  def grid(points: RDD[Pt], eps: Double, d: Int): CellIndex = {
    val side = sideFor(eps, d)
    build(points, eps, d)(p => gridKey(p.x, side))
  }

  /** Box-based construction (paper §4.2, 2D only): x-strips of width ≤ ε/√2,
    * then y-boxes of height ≤ ε/√2 inside each strip. Strip/box boundaries
    * are the same ones the paper's pointer-jumping computes: a new strip
    * starts at the first point more than ε/√2 past the current strip start. */
  def box2d(points: RDD[Pt], eps: Double): CellIndex = {
    val side = sideFor(eps, 2)
    val sc = points.sparkContext
    // Strip boundaries from the sorted x-coordinates (driver scan over one
    // primitive array — the O(n) sequential dependence the paper removes
    // with pointer jumping; at single-node scale this scan is negligible).
    val xs = points.map(_.x(0)).collect()
    java.util.Arrays.sort(xs)
    val bcStrips = sc.broadcast(boundaries(xs, side))
    try {
      val strip = (p: Pt) => lastLeq(bcStrips.value, p.x(0))
      // Per-strip y boundaries.
      val yBounds = points
        .map(p => (strip(p), p.x(1)))
        .groupByKey()
        .mapValues { ys => val a = ys.toArray; java.util.Arrays.sort(a); boundaries(a, side) }
        .collect()
        .toMap
      val bcY = sc.broadcast(yBounds)
      try build(points, eps, 2) { p => val s = strip(p); Vector(s, lastLeq(bcY.value(s), p.x(1))) }
      finally bcY.destroy()
    } finally bcStrips.destroy()
  }

  /** Groups points into cells by `key` and finalizes the index; shared by
    * both constructions.
    *
    * The paper's work-efficient semisort groups points by cell id without
    * ordering; the Spark analogue is a combiner-style shuffle: each partition
    * pre-groups its points into primitive-packed (ids, coords) arrays per
    * cell (PBBS's per-block histograms), then `reduceByKey` concatenates —
    * only flat arrays cross the shuffle, never per-point objects. */
  private def build(points: RDD[Pt], eps: Double, d: Int)(key: Pt => Vector[Int]): CellIndex = {
    val grouped = points
      .mapPartitions { it =>
        val local = scala.collection.mutable.HashMap[Vector[Int],
          (scala.collection.mutable.ArrayBuilder.ofLong, scala.collection.mutable.ArrayBuilder.ofDouble)]()
        it.foreach { p =>
          val (ids, cs) = local.getOrElseUpdate(key(p),
            (new scala.collection.mutable.ArrayBuilder.ofLong,
             new scala.collection.mutable.ArrayBuilder.ofDouble))
          ids += p.id
          cs ++= p.x
        }
        local.iterator.map { case (k, (ids, cs)) => (k, (ids.result(), cs.result())) }
      }
      .reduceByKey { (a, b) => (a._1 ++ b._1, a._2 ++ b._2) }
      .collect()
    val cells = grouped.map { case (_, (ids, cs)) =>
      Array.tabulate(ids.length) { i =>
        Pt(ids(i), java.util.Arrays.copyOfRange(cs, i * d, i * d + d))
      }
    }
    finalize(cells, grouped.map(_._1), eps, sideFor(eps, d), d, points.sparkContext)
  }

  /** Starts of consecutive intervals of width `side` over sorted values. */
  private def boundaries(sorted: Array[Double], side: Double): Array[Double] = {
    val out = scala.collection.mutable.ArrayBuffer[Double]()
    var i = 0
    while (i < sorted.length) {
      if (out.isEmpty || sorted(i) > out.last + side) out += sorted(i)
      i += 1
    }
    out.toArray
  }

  /** Index of the last boundary ≤ v (boundaries sorted ascending). */
  private def lastLeq(bounds: Array[Double], v: Double): Int = {
    var lo = 0; var hi = bounds.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (bounds(mid) <= v) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Shared tail: ids, tight bboxes, neighbor lists via a k-d tree over cell
    * centers (paper §5.1 — enumeration is exponential in d, the tree finds
    * only the non-empty neighbors). */
  private def finalize(cells: Array[Array[Pt]], keys: Array[Vector[Int]],
                       eps: Double, side: Double, d: Int,
                       sc: org.apache.spark.SparkContext): CellIndex = {
    val m = cells.length
    if (m == 0)
      return new CellIndex(eps, side, d, 0L, keys, Array.empty, Array.empty, cells, Array.empty)
    val lo = new Array[Array[Double]](m)
    val hi = new Array[Array[Double]](m)
    var maxDiag = 0.0
    var c = 0
    var n = 0L
    while (c < m) {
      val bb = BBox.of(cells(c))
      lo(c) = bb.lo; hi(c) = bb.hi
      maxDiag = math.max(maxDiag, math.sqrt(Dist.sq(bb.lo, bb.hi)))
      n += cells(c).length
      c += 1
    }
    // Neighbor lookup: centers within eps + maxDiag cover every cell pair
    // with bbox distance ≤ eps; exact-filter afterwards. The per-cell queries
    // are embarrassingly parallel (sequential on the driver they are the
    // bottleneck on datasets where every noise point is its own cell).
    val tree = KDTree.build(Array.tabulate(m)(i => Pt(i, BBox(lo(i), hi(i)).center)))
    val e2 = eps * eps
    val r = eps + maxDiag
    val bc = sc.broadcast((tree, lo, hi))
    val neighbors = try Par.perCell(sc, 0 until m, par = 0) { i =>
      val (tr, loA, hiA) = bc.value
      val bb = BBox(loA(i), hiA(i))
      Some(tr.within(bb.center, r)
        .map(_.id.toInt)
        .filter(j => j != i && bb.minSqDist(BBox(loA(j), hiA(j))) <= e2)
        .sorted)
    } finally bc.destroy()
    new CellIndex(eps, side, d, n, keys, lo, hi, cells, neighbors)
  }
}
