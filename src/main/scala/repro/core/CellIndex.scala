package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.rdd.RDD
import repro.geometry.KDTree

/** The cell structure shared by every algorithm variant (paper Alg. 1 line 2).
  *
  * Laid out as the paper's semisort leaves it: the points permuted into cell
  * order, so cell c owns positions `[start(c), start(c+1))` of `ids` and of
  * `coords` (d values per point). Per cell, d values each of `cellLo` and
  * `cellHi` hold its tight bounding box, and `nbrs[nbrStart(c),
  * nbrStart(c+1))` lists its *neighboring* cells — cells whose boxes are
  * within ε, the only ones that can contain points within ε of this cell's
  * points. The cell keys only group the points and are not kept. The index
  * stores per-cell counts and derives the two offset arrays once per JVM:
  * counts compress to a third of the size of offsets under Spark's broadcast
  * codec.
  *
  * Cells are disjoint with per-dimension extent ≤ ε/√d, so all points inside
  * one cell are within ε of each other — the invariant both MarkCore's
  * all-core shortcut and ClusterCore's cell graph rely on.
  *
  * The index is built distributed and then broadcast, emulating shared
  * memory on the single-node cluster: per-cell tasks get random access to
  * any neighboring cell's points. The grouping is the paper's semisort as
  * one Spark shuffle: map tasks hash cell keys to r reducers and send each
  * reducer one flat block, reducers group their blocks into cells and bound
  * the cells' boxes, and the driver concatenates the r results (see
  * `CellIndex.build`). The index holds only scalars and primitive arrays, so
  * Java serialization is already a compact broadcast format. The per-cell
  * accessors slice on every call; hot loops read the flat arrays.
  */
final class CellIndex(
    val eps: Double,
    val cellSide: Double,
    val d: Int,
    val cellSizes: Array[Int],
    val ids: Array[Int],
    val coords: Array[Double],
    val cellLo: Array[Double],
    val cellHi: Array[Double],
    val nbrCounts: Array[Int],
    val nbrs: Array[Int],
) extends Serializable {

  /** Offsets (m + 1 of each) into `ids`/`coords` and into `nbrs`. */
  @transient lazy val start: Array[Int] = cellSizes.scanLeft(0)(_ + _)
  @transient lazy val nbrStart: Array[Int] = nbrCounts.scanLeft(0)(_ + _)

  def n: Long = ids.length
  def numCells: Int = cellSizes.length
  def size(c: Int): Int = cellSizes(c)
  def tightLo(c: Int): Array[Double] = cellLo.slice(c * d, c * d + d)
  def tightHi(c: Int): Array[Double] = cellHi.slice(c * d, c * d + d)
  def bbox(c: Int): BBox = BBox(tightLo(c), tightHi(c))

  /** Root corner for the cell's quadtree (hypercube of side `cellSide`). */
  def qtLo(c: Int): Array[Double] = tightLo(c)

  /** Every cell's neighbor list, sliced on access. */
  def neighbors: collection.IndexedSeqView[Array[Int]] =
    (0 until numCells).view.map(c => nbrs.slice(nbrStart(c), nbrStart(c + 1)))

  /** Cell c's points as fresh `Pt`s, for the `Pt`-based per-cell structures. */
  def pts(c: Int): Array[Pt] =
    Array.tabulate(size(c)) { i => val p = start(c) + i; Pt(ids(p), coords.slice(p * d, p * d + d)) }

  /** Allocation-free squared distance from `x` to cell `c`'s tight box. */
  def minSqDistToCell(c: Int, x: Array[Double]): Double = minSqDistToCell(c, x, 0)

  /** The same for the point at offset `off` of a flat coordinate array — the
    * hot-path bbox prefilter in MarkCore / ClusterBorder. */
  def minSqDistToCell(c: Int, xs: Array[Double], off: Int): Double =
    BBox.minSqDistTo(cellLo, cellHi, c * d, d, xs, off)
}

object CellIndex {

  /** Cell side length ε/√d (diagonal exactly ε). */
  def sideFor(eps: Double, d: Int): Double = eps / math.sqrt(d.toDouble)

  /** Integer grid key of a point. Throws when a coordinate lies 2^31 or more
    * cells from the origin, where the key would not fit an Int. */
  def gridKey(x: Array[Double], side: Double): ArraySeq[Int] = {
    val k = new Array[Int](x.length)
    var j = 0
    while (j < x.length) {
      val q = x(j) / side
      if (!(math.abs(q) < 2147483648.0)) throw new IllegalArgumentException(
        s"coordinate ${x(j)} is out of the grid's Int range at cell side $side")
      k(j) = math.floor(q).toInt
      j += 1
    }
    ArraySeq.unsafeWrapArray(k)
  }

  /** Grid-based construction (paper §4.1, used for all d). Every stage runs
    * at most `Par.parts(·, par)` tasks, like the later phases. */
  def grid(points: RDD[Pt], eps: Double, d: Int, par: Int = 0): CellIndex = {
    val side = sideFor(eps, d)
    build(Par.coalesce(points, par), eps, d, par)(p => gridKey(p.x, side))
  }

  /** Box-based construction (paper §4.2, 2D only): x-strips of width ≤ ε/√2,
    * then y-boxes of height ≤ ε/√2 inside each strip. Strip/box boundaries
    * are the same ones the paper's pointer-jumping computes: a new strip
    * starts at the first point more than ε/√2 past the current strip start.
    * Every stage runs at most `Par.parts(·, par)` tasks, like the later
    * phases. */
  def box2d(points: RDD[Pt], eps: Double, par: Int = 0): CellIndex = {
    val side = sideFor(eps, 2)
    val pts = Par.coalesce(points, par)
    // Read twice: for the boundaries, then to group.
    Par.persisting(pts) {
      // Strip and per-strip y boundaries from the sorted coordinates (a driver
      // scan over primitive arrays — the O(n) sequential dependence the paper
      // removes with pointer jumping; at single-node scale it is negligible).
      val xy = Par.collect(pts)(_.flatMap(p => checked(p, 2).x).toArray)
      val n = xy.length / 2
      val xs = Array.tabulate(n)(i => xy(2 * i))
      java.util.Arrays.sort(xs)
      val strips = boundaries(xs, side)
      val ys = Array.fill(strips.length)(new mutable.ArrayBuilder.ofDouble)
      for (i <- 0 until n) ys(lastLeq(strips, xy(2 * i))) += xy(2 * i + 1)
      val yBounds = ys.map { b => val a = b.result(); java.util.Arrays.sort(a); boundaries(a, side) }
      Par.sharing(pts.sparkContext) { share =>
        val bc = share((strips, yBounds))
        build(pts, eps, 2, par) { p =>
          val (st, yb) = bc.value
          val s = lastLeq(st, p.x(0))
          ArraySeq(s, lastLeq(yb(s), p.x(1)))
        }
      }
    }
  }

  /** `p`, once it has exactly `d` finite coordinates and, with `intId`, an
    * Int id. Shared by the baselines. */
  private[repro] def checked(p: Pt, d: Int, intId: Boolean = true): Pt = {
    val x = p.x
    var ok = (!intId || p.id.isValidInt) && x.length == d
    var j = 0
    while (ok && j < d) { ok = java.lang.Double.isFinite(x(j)); j += 1 }
    if (!ok) throw new IllegalArgumentException(
      s"point ${p.id} needs an id in [0, n) and $d finite coordinates, has [${x.mkString(", ")}]")
    p
  }

  /** Groups points into cells by `key` and lays the index out; shared by
    * both constructions.
    *
    * The grouping is the paper's semisort (§4.1; Gu et al., SPAA 2015): keys
    * hash to r buckets, r being `points`' partition count, and each bucket
    * is grouped in a task of its own. Each map task groups its points by key
    * and sends reducer b one flat [[Piece]] with its cells whose key hashes
    * to b (`floorMod(key.hashCode, r)`), so it writes at most r shuffle
    * records however many cells it holds. Each reducer merges its pieces by
    * key in map order, so the order of cells and points is deterministic,
    * and bounds its cells' boxes. The driver concatenates the r results,
    * then finds each cell's neighbors with `neighborLists`. */
  private def build(points: RDD[Pt], eps: Double, d: Int, par: Int)(key: Pt => ArraySeq[Int]): CellIndex = {
    val r = points.getNumPartitions
    val parts = Par.collect(points
      .mapPartitionsWithIndex((map, it) => pieces(map, it, d, r)(p => key(checked(p, d))))
      .partitionBy(new HashPartitioner(r)))(it => Array(merge(it.map(_._2).toArray, d)))
    def cat[T: ClassTag](f: Cells => Array[T]): Array[T] = Array.concat(ArraySeq.unsafeWrapArray(parts.map(f)): _*)
    val ids = cat(_.ids)
    requireDense(ids.length)(ids(_))
    val (lo, hi) = (cat(_.lo), cat(_.hi))
    val (nbrCounts, nbrs) = neighborLists(points.sparkContext, lo, hi, d, eps, par)
    new CellIndex(eps, sideFor(eps, d), d, cat(_.sizes), ids, cat(_.coords), lo, hi, nbrCounts, nbrs)
  }

  /** Map task `map`'s cells bound for one reducer: per cell, its key (d
    * ints) and size; per point, in cell order, its id and d coordinates. */
  private final class Piece(val map: Int, val keys: Array[Int], val sizes: Array[Int],
                            val ids: Array[Int], val coords: Array[Double]) extends Serializable

  /** A reducer's cells, laid out as the index lays them out: sizes, ids and
    * coordinates in cell order, and each cell's tight box. */
  private final class Cells(val sizes: Array[Int], val ids: Array[Int], val coords: Array[Double],
                            val lo: Array[Double], val hi: Array[Double]) extends Serializable

  /** Map task `map`'s points grouped by key, as one (reducer, piece) per
    * reducer that gets a cell. */
  private def pieces(map: Int, it: Iterator[Pt], d: Int, r: Int)(key: Pt => ArraySeq[Int]): Iterator[(Int, Piece)] = {
    val cells = mutable.HashMap[ArraySeq[Int], (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]()
    it.foreach { p =>
      val (ids, xs) = cells.getOrElseUpdate(key(p), (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
      ids += p.id.toInt
      xs ++= p.x
    }
    val keys = Array.fill(r)(new mutable.ArrayBuilder.ofInt)
    val sizes = Array.fill(r)(new mutable.ArrayBuilder.ofInt)
    val ids = Array.fill(r)(new mutable.ArrayBuilder.ofInt)
    val coords = Array.fill(r)(new mutable.ArrayBuilder.ofDouble)
    cells.foreach { case (k, (is, xs)) =>
      val b = Math.floorMod(k.hashCode, r)
      val a = is.result()
      keys(b) ++= k; sizes(b) += a.length; ids(b) ++= a; coords(b) ++= xs.result()
    }
    Iterator.range(0, r).filter(sizes(_).length > 0)
      .map(b => (b, new Piece(map, keys(b).result(), sizes(b).result(), ids(b).result(), coords(b).result())))
  }

  /** One reducer's pieces merged by key, each cell's points in map order,
    * and each cell's tight box. The boxes make the comparisons `BBox.of`
    * makes in the same order, so they equal its boxes bit for bit. */
  private def merge(in: Array[Piece], d: Int): Cells = {
    val cells = mutable.HashMap[ArraySeq[Int], (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]()
    for (piece <- in.sortBy(_.map)) {
      var from = 0
      for (s <- piece.sizes.indices) {
        val (ids, xs) = cells.getOrElseUpdate(ArraySeq.unsafeWrapArray(piece.keys.slice(s * d, s * d + d)),
          (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
        val len = piece.sizes(s)
        ids.addAll(piece.ids, from, len)
        xs.addAll(piece.coords, from * d, len * d)
        from += len
      }
    }
    val m = cells.size
    val sizes = new Array[Int](m)
    val (ids, coords) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble)
    val lo = Array.fill(m * d)(Double.PositiveInfinity)
    val hi = Array.fill(m * d)(Double.NegativeInfinity)
    var c = 0
    for ((is, xb) <- cells.valuesIterator) {
      val xs = xb.result()
      sizes(c) = xs.length / d
      ids ++= is.result()
      coords ++= xs
      var k = 0
      while (k < xs.length) {
        val b = c * d + k % d
        if (xs(k) < lo(b)) lo(b) = xs(k)
        if (xs(k) > hi(b)) hi(b) = xs(k)
        k += 1
      }
      c += 1
    }
    new Cells(sizes, ids.result(), coords.result(), lo, hi)
  }

  /** For each of the m boxes that are the `d` values at offset c·d of `lo`
    * and `hi`, the sorted ids of the other boxes within `eps` of it — its
    * neighboring cells — as one CSR pair: each box's neighbor count, and the
    * lists one after another. A k-d tree over the box centers finds the
    * candidates (paper §5.1: enumerating the neighbor cells is exponential
    * in d, the tree finds only the non-empty ones): centers within ε + the
    * largest box diagonal cover every box within ε, and the box distance
    * filters them. The per-box queries are one [[Par.perCell]] pass over the
    * broadcast tree and boxes; on the driver they are the bottleneck when
    * most cells hold one point. */
  private[repro] def neighborLists(sc: SparkContext, lo: Array[Double], hi: Array[Double], d: Int,
                                   eps: Double, par: Int): (Array[Int], Array[Int]) = {
    val m = lo.length / d
    val centers = Array.tabulate(m * d)(i => (lo(i) + hi(i)) / 2)
    // A box's squared diagonal is its corner `lo`'s squared distance to its far corner.
    var maxDiag2 = 0.0
    var c = 0
    while (c < m) { maxDiag2 = math.max(maxDiag2, BBox.maxSqDistTo(lo, hi, c * d, d, lo, c * d)); c += 1 }
    val r = eps + math.sqrt(maxDiag2)
    val e2 = eps * eps
    val lists = Par.sharing(sc) { share =>
      val bc = share((KDTree.over(centers, d, Array.range(0, m)), lo, hi))
      Par.perCell(sc, 0 until m, par) { c =>
        val (tree, bl, bh) = bc.value
        val q = Array.tabulate(d)(j => (bl(c * d + j) + bh(c * d + j)) / 2)
        val near = tree.within(q, r).filter(h => h != c && BBox.sqDistBetween(bl, bh, c * d, bl, bh, h * d, d) <= e2)
        java.util.Arrays.sort(near)
        Some(near)
      }
    }
    val counts = new Array[Int](m)
    var total = 0
    c = 0
    while (c < m) { counts(c) = lists(c).length; total += counts(c); c += 1 }
    val flat = new Array[Int](total)
    total = 0
    c = 0
    while (c < m) { System.arraycopy(lists(c), 0, flat, total, counts(c)); total += counts(c); c += 1 }
    (counts, flat)
  }

  /** Every per-point array is indexed by id, so the ids `idAt(0 until n)`
    * must be `[0, n)`, each once; throws naming the first bad id. Shared by
    * the baselines, whose ids are the callers' `Long`s. */
  private[repro] def requireDense(n: Int)(idAt: Int => Long): Unit = {
    val seen = new java.util.BitSet(n)
    var i = 0
    while (i < n) {
      val id = idAt(i)
      if (id < 0 || id >= n || seen.get(id.toInt)) throw new IllegalArgumentException(
        s"point id $id: ids must be dense in [0, $n) and unique")
      seen.set(id.toInt)
      i += 1
    }
  }

  /** The checks `DBSCAN.run` makes, for the baselines that take the points
    * as an array: valid ε and minPts, dense ids, and the first point's
    * arity and finite coordinates for every point. Returns the points in id
    * order. */
  private[repro] def byId(pts: Array[Pt], eps: Double, minPts: Int): Array[Pt] = {
    DBSCANConfig.requireParams(eps, minPts)
    requireDense(pts.length)(pts(_).id)
    val out = new Array[Pt](pts.length)
    pts.foreach(p => out(p.id.toInt) = checked(p, pts(0).d))
    out
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

  /** Index of the last boundary ≤ v (boundaries sorted ascending), or 0
    * when none is. Shared with HpDbscan's slab lookup. */
  private[repro] def lastLeq(bounds: Array[Double], v: Double): Int = {
    var lo = 0; var hi = bounds.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (bounds(mid) <= v) lo = mid else hi = mid - 1
    }
    lo
  }
}
