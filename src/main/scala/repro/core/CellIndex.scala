package repro.core

import java.lang.Double.{doubleToLongBits, longBitsToDouble}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import repro.geometry.KDTree

/** The cell structure shared by every algorithm variant (paper Alg. 1 line 2).
  *
  * Laid out as the paper's semisort leaves it: the points permuted into cell
  * order, so cell c owns positions `[start(c), start(c+1))` of `ids` and of
  * `coords` (d values per point). Per cell, d values each of `cellLo` and
  * `cellHi` hold its tight bounding box. The cell keys only group the points
  * and are not kept. The index stores per-cell counts and derives the offsets
  * once per JVM: counts compress to a third of the size of offsets under
  * Spark's broadcast codec.
  *
  * A cell's *neighboring* cells are the cells whose boxes lie within ε of
  * its box, the only ones that can hold points within ε of its points; a
  * k-d tree over the cell boxes finds them (paper §5.1, `listsIn`). The
  * index a run broadcasts holds no `lists` (null): MarkCore's job builds
  * the tree, broadcasts it for that job alone, and its tasks look up their
  * own cells' lists (see `ConnCtx.pass`). `grid` and `box2d` find the lists
  * in a job of their own and return an index that holds them.
  *
  * Cells are disjoint with a float extent ≤ `sideFor(ε, d)` on every axis,
  * so all points inside one cell are within ε of each other by `Dist.leq`
  * — the invariant MarkCore's all-core shortcut, ClusterCore's cell graph
  * and ClusterBorder rely on; the construction checks each cell's diagonal.
  *
  * The index is built distributed and then broadcast, emulating shared
  * memory on the single-node cluster: per-cell tasks get random access to
  * any neighboring cell's points. The grouping is the paper's semisort on
  * primitive keys in one Spark stage: map tasks number their cell keys (d
  * ints each) in an open-addressing [[KeyTable]] and each return one flat
  * block of their points grouped by cell; the driver merges the r blocks
  * the same way and bounds the cells' boxes (see `CellIndex.build`). Cells
  * come grouped by `floorMod(KeyTable.hash(key), r)`, and within a group in
  * the order first seen. The index holds only scalars and primitive
  * arrays, so Java serialization is already a compact broadcast format. The
  * per-cell accessors slice on every call; hot loops read the flat arrays.
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
    val lists: Neighbors,
) extends Serializable {

  /** Offsets (m + 1) into `ids`/`coords`. */
  @transient lazy val start: Array[Int] = cellSizes.scanLeft(0)(_ + _)

  def n: Long = ids.length
  def numCells: Int = cellSizes.length
  def size(c: Int): Int = cellSizes(c)
  def tightLo(c: Int): Array[Double] = cellLo.slice(c * d, c * d + d)
  def tightHi(c: Int): Array[Double] = cellHi.slice(c * d, c * d + d)
  def bbox(c: Int): BBox = BBox(tightLo(c), tightHi(c))

  /** Root corner for the cell's quadtree (hypercube of side `cellSide`). */
  def qtLo(c: Int): Array[Double] = tightLo(c)

  /** Every cell's neighbor list, sliced on access; needs the `lists`. */
  def neighbors: collection.IndexedSeqView[Array[Int]] = (0 until numCells).view.map(CellIndex.listsOf(this)(_))

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

/** Every cell's neighboring cells as one CSR pair: each cell's neighbor
  * count, and the sorted lists one after another. The offsets are derived
  * once per JVM, like the index's. */
final class Neighbors(val counts: Array[Int], val nbrs: Array[Int]) extends Serializable {
  /** Offsets (m + 1) into `nbrs`. */
  @transient lazy val start: Array[Int] = counts.scanLeft(0)(_ + _)

  /** Cell c's list, sliced. */
  def apply(c: Int): Array[Int] = nbrs.slice(start(c), start(c + 1))
}

object CellIndex {

  /** Cell side length: the largest double s ≤ ε/√d whose d-fold float sum
    * of s·s is ≤ ε·ε, so that a box of float extent ≤ s on every axis passes
    * `Dist.leq`'s sum: float subtraction, squaring and adding are monotone,
    * so every pair of points inside it is within ε. Found by bisection over
    * the bits of the non-negative doubles, which order as the doubles do. */
  def sideFor(eps: Double, d: Int): Double = {
    def fits(bits: Long) = { val s = longBitsToDouble(bits); (0 until d).foldLeft(0.0)((sum, _) => sum + s * s) <= eps * eps }
    var (lo, hi) = (0L, doubleToLongBits(eps / math.sqrt(d.toDouble)) + 1) // fits(lo); the side is below hi
    while (hi - lo > 1) { val mid = (lo + hi) >>> 1; if (fits(mid)) lo = mid else hi = mid }
    longBitsToDouble(lo)
  }

  /** Integer grid key of a point. Throws when a coordinate lies 2^31 or more
    * cells from the origin, where the key would not fit an Int. */
  def gridKey(x: Array[Double], side: Double): ArraySeq[Int] = {
    val k = new Array[Int](x.length)
    gridKey(x, side, k, 0)
    ArraySeq.unsafeWrapArray(k)
  }

  /** [[gridKey]], written to the `x.length` ints at offset `off` of `out`. */
  private def gridKey(x: Array[Double], side: Double, out: Array[Int], off: Int): Unit = {
    var j = 0
    while (j < x.length) {
      val q = x(j) / side
      if (!(math.abs(q) < 2147483648.0)) throw new IllegalArgumentException(
        s"coordinate ${x(j)} is out of the grid's Int range at cell side $side")
      out(off + j) = math.floor(q).toInt
      j += 1
    }
  }

  /** Grid-based construction (paper §4.1, used for all d), with each cell's
    * neighbor lists. Every stage runs at most `Par.parts(·, par)` tasks,
    * like the later phases. */
  def grid(points: RDD[Pt], eps: Double, d: Int, par: Int = 0): CellIndex =
    withLists(cells(points, eps, d, GridCells, par), points.sparkContext, par)

  /** Box-based construction (paper §4.2, 2D only), with each cell's neighbor
    * lists. Every stage runs at most `Par.parts(·, par)` tasks, like the
    * later phases. */
  def box2d(points: RDD[Pt], eps: Double, par: Int = 0): CellIndex =
    withLists(cells(points, eps, 2, BoxCells, par), points.sparkContext, par)

  /** The cells of `method`, without neighbor lists: the index a run
    * broadcasts, whose MarkCore job finds the lists. Grid cells are the
    * points' `gridKey`s. Box cells are x-strips of width ≤ s, then y-boxes
    * of height ≤ s inside each strip, s being `sideFor(ε, 2)`, with the
    * boundaries the paper's pointer-jumping computes: a new strip starts at
    * the first point whose float difference from the current strip start
    * exceeds s. Every stage runs at most `Par.parts(·, par)` tasks. */
  private[core] def cells(points: RDD[Pt], eps: Double, d: Int, method: CellMethod, par: Int): CellIndex = {
    val side = sideFor(eps, d)
    val pts = Par.coalesce(points, par)
    method match {
      case GridCells => build(pts, eps, d)((p, k, off) => gridKey(p.x, side, k, off))
      // Read twice: for the boundaries, then to group.
      case BoxCells => Par.persisting(pts) {
        // Strip and per-strip y boundaries from the sorted coordinates (a
        // driver scan over primitive arrays — the O(n) sequential dependence
        // the paper removes with pointer jumping; at single-node scale it is
        // negligible).
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
          build(pts, eps, 2) { (p, k, off) =>
            val (st, yb) = bc.value
            k(off) = lastLeq(st, p.x(0))
            k(off + 1) = lastLeq(yb(k(off)), p.x(1))
          }
        }
      }
    }
  }

  /** `idx`'s neighbor lists; throws on the caller's thread when `idx` holds
    * none (a run's index, from `cells`). */
  private[core] def listsOf(idx: CellIndex): Neighbors = if (idx.lists != null) idx.lists
    else throw new IllegalArgumentException("the index holds no neighbor lists: build it with CellIndex.grid or box2d")

  /** `idx` with its neighbor lists, found by `neighborLists`. */
  private def withLists(idx: CellIndex, sc: SparkContext, par: Int): CellIndex =
    new CellIndex(idx.eps, idx.cellSide, idx.d, idx.cellSizes, idx.ids, idx.coords, idx.cellLo, idx.cellHi,
      neighborLists(sc, idx.cellLo, idx.cellHi, idx.d, idx.eps, par))

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

  /** Groups points into cells by `key`, which writes a point's d ints at an
    * offset of an array, and lays the index out; shared by both
    * constructions.
    *
    * The grouping is the paper's semisort (§4.1; Gu et al., SPAA 2015) in one
    * Spark stage: each map task numbers its keys with a [[KeyTable]] and
    * returns its points grouped by cell as one flat [[Block]], and the driver
    * merges the r blocks (`merge`), r being `points`' partition count. */
  private def build(points: RDD[Pt], eps: Double, d: Int)(key: (Pt, Array[Int], Int) => Unit): CellIndex =
    merge(Par.collect(points)(it => Array(block(it, d)((p, k, off) => key(checked(p, d), k, off)))), eps, d,
      points.getNumPartitions)

  /** `f` of each of `xs`, concatenated. */
  private[core] def cat[A, T: ClassTag](xs: Array[A])(f: A => Array[T]): Array[T] =
    Array.concat(ArraySeq.unsafeWrapArray(xs.map(f)): _*)

  /** Points grouped into runs: per run, its key (d ints) and size; per
    * point, in run order, its id and d coordinates. */
  private final class Block(val keys: Array[Int], val sizes: Array[Int], val ids: Array[Int],
                            val coords: Array[Double]) extends Serializable

  /** A map task's points grouped by key, one run per cell, the cells in
    * first-seen order. */
  private def block(it: Iterator[Pt], d: Int)(key: (Pt, Array[Int], Int) => Unit): Block = {
    val pts = it.toArray
    val n = pts.length
    val (keys, xs, ids) = (new Array[Int](n * d), new Array[Double](n * d), new Array[Int](n))
    var i = 0
    while (i < n) { key(pts(i), keys, i * d); System.arraycopy(pts(i).x, 0, xs, i * d, d); ids(i) = pts(i).id.toInt; i += 1 }
    val t = new KeyTable(keys, d, n)
    val cellKeys = new Array[Int](t.size * d)
    for (c <- 0 until t.size) System.arraycopy(keys, t.first(c) * d, cellKeys, c * d, d)
    val (sizes, cellIds, coords) = scatter(t.size, t.cellOf, Array(new Block(keys, Array.fill(n)(1), ids, xs)), d)
    new Block(cellKeys, sizes, cellIds, coords)
  }

  /** The index of the r map tasks' blocks, merged by key on the driver:
    * each cell's points in block order, and each cell's tight box. Cells
    * come grouped by `floorMod(KeyTable.hash(key), r)`, and first seen
    * first within a group: hash order spreads dense cells over the equal
    * ranges of cell ids that the per-cell passes cut. The boxes make the
    * comparisons `BBox.of` makes in the same order, so they equal its boxes
    * bit for bit. Throws an `IllegalStateException` naming the cell if a
    * box's diagonal fails `Dist.leq` at ε: every later phase relies on any
    * two points of a cell being within ε. */
  private def merge(blocks: Array[Block], eps: Double, d: Int, r: Int): CellIndex = {
    val keys = cat(blocks)(_.keys)
    val t = new KeyTable(keys, d, keys.length / d)
    val m = t.size
    val group = Array.tabulate(m)(c => Math.floorMod(KeyTable.hash(keys, t.first(c) * d, d), r))
    val next = new Array[Int](r + 1)
    group.foreach(g => next(g + 1) += 1)
    for (g <- 1 until r) next(g) += next(g - 1)
    val order = group.map { g => next(g) += 1; next(g) - 1 }
    val (sizes, ids, coords) = scatter(m, t.cellOf.map(order), blocks, d)
    requireDense(ids.length)(ids(_))
    val lo = Array.fill(m * d)(Double.PositiveInfinity)
    val hi = Array.fill(m * d)(Double.NegativeInfinity)
    var c = 0; var k = 0
    while (c < m) {
      val end = k + sizes(c) * d
      while (k < end) {
        val b = c * d + k % d
        if (coords(k) < lo(b)) lo(b) = coords(k)
        if (coords(k) > hi(b)) hi(b) = coords(k)
        k += 1
      }
      if (!Dist.leq(lo, c * d, hi, c * d, d, eps)) throw new IllegalStateException(
        s"cell $c spans [${lo.slice(c * d, c * d + d).mkString(", ")}] to [${hi.slice(c * d, c * d + d).mkString(", ")}]: " +
          s"its points are not all within eps = $eps of each other")
      c += 1
    }
    new CellIndex(eps, sideFor(eps, d), d, sizes, ids, coords, lo, hi, null)
  }

  /** The runs of `blocks` laid out by cell, by one counting pass: run i,
    * counted over the blocks in order, belongs to cell `cellOf(i)` of m.
    * Returns each cell's size, and the ids and coordinates in cell order,
    * each cell's points in run order. */
  private def scatter(m: Int, cellOf: Array[Int], blocks: Array[Block], d: Int): (Array[Int], Array[Int], Array[Double]) = {
    val sizes = new Array[Int](m)
    var i = 0
    for (b <- blocks) {
      var j = 0
      while (j < b.sizes.length) { sizes(cellOf(i)) += b.sizes(j); i += 1; j += 1 }
    }
    val next = sizes.scanLeft(0)(_ + _)
    val (outIds, outXs) = (new Array[Int](next(m)), new Array[Double](next(m) * d))
    i = 0
    for (b <- blocks) {
      var j = 0; var from = 0
      while (j < b.sizes.length) {
        val (to, len) = (next(cellOf(i)), b.sizes(j))
        System.arraycopy(b.ids, from, outIds, to, len)
        System.arraycopy(b.coords, from * d, outXs, to * d, len * d)
        next(cellOf(i)) += len; from += len; i += 1; j += 1
      }
    }
    (sizes, outIds, outXs)
  }

  /** For each of the m boxes that are the `d` values at offset c·d of `lo`
    * and `hi`, its neighboring cells as `listsIn` finds them, over the k-d
    * tree over the boxes that this builds on the driver. The queries are one
    * [[Par.slices]] pass over the broadcast tree and boxes, each task
    * returning its cells' counts and lists as two flat arrays; on the driver
    * they are the bottleneck when most cells hold one point. */
  private[repro] def neighborLists(sc: SparkContext, lo: Array[Double], hi: Array[Double], d: Int,
                                   eps: Double, par: Int): Neighbors = {
    val lists = Par.sharing(sc) { share =>
      val bc = share((boxTree(lo, hi, d), lo, hi))
      Par.slices(sc, lo.length / d, par) { (from, until) =>
        val (tree, bl, bh) = bc.value
        listsIn(tree, bl, bh, d, eps, from, until)
      }
    }
    new Neighbors(cat(lists)(_.counts), cat(lists)(_.nbrs))
  }

  /** The k-d tree over the m boxes that are the `d` values at offset c·d of
    * `lo` and `hi`, box c having id c. */
  private[core] def boxTree(lo: Array[Double], hi: Array[Double], d: Int): KDTree =
    KDTree.overBoxes(lo, hi, d, Array.range(0, lo.length / d))

  /** For boxes `[from, until)` of the boxes `tree` holds (the `d` values at
    * offset c·d of `lo` and `hi` for box c, id c), the sorted ids of the
    * other boxes within `eps` of each, its neighboring cells. The tree (paper
    * §5.1: enumerating the neighbor cells is exponential in d, the tree
    * finds only the non-empty ones) prunes and reports by the box distance
    * itself, so it visits no box beyond `eps`. Returns them as
    * [[Neighbors]] whose cell i is box `from + i`. The one neighbor query:
    * `neighborLists` and MarkCore's job both run it. */
  private[core] def listsIn(tree: KDTree, lo: Array[Double], hi: Array[Double], d: Int, eps: Double,
                            from: Int, until: Int): Neighbors = {
    val counts = new Array[Int](until - from)
    val out = new mutable.ArrayBuilder.ofInt
    for (c <- from until until) {
      val near = tree.withinBox(lo, hi, c * d, eps)
      java.util.Arrays.sort(near)
      var i = 0
      while (i < near.length) { if (near(i) != c) out.addOne(near(i)); i += 1 }
      counts(c - from) = near.length - 1 // the box itself is at distance 0
    }
    new Neighbors(counts, out.result())
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

  /** Starts of consecutive intervals over sorted values: each holds the
    * values whose float difference from its start is ≤ `side`. */
  private def boundaries(sorted: Array[Double], side: Double): Array[Double] = {
    val out = scala.collection.mutable.ArrayBuffer[Double]()
    var i = 0
    while (i < sorted.length) {
      if (out.isEmpty || sorted(i) - out.last > side) out += sorted(i)
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

/** The distinct keys among `count` keys of `d` ints each, key i being the d
  * ints at offset i·d of `keys`, numbered first seen first: `cellOf(i)` is
  * key i's number and `first(c)` the first key numbered c. The numbering is
  * paper §4.1's semisort on integer keys: an open-addressing table of
  * [[KeyTable.capacity]]`(count)` slots with linear probing, where each key
  * starts at the slot of its `Long` hash and keys that share a slot are told
  * apart by comparing all d ints. The order does not depend on the hash. */
private[core] final class KeyTable(keys: Array[Int], d: Int, count: Int) {
  val cellOf = new Array[Int](count)
  private val firsts = new Array[Int](count)
  private var m = 0
  locally {
    val cap = KeyTable.capacity(count)
    val slots = new Array[Int](cap) // 1 + the number of the key in the slot, or 0
    var i = 0
    while (i < count) {
      var s = KeyTable.slot(KeyTable.hash(keys, i * d, d), cap)
      while (slots(s) > 0 && !java.util.Arrays.equals(keys, firsts(slots(s) - 1) * d, firsts(slots(s) - 1) * d + d,
          keys, i * d, i * d + d)) s = (s + 1) & (cap - 1)
      if (slots(s) == 0) { firsts(m) = i; m += 1; slots(s) = m }
      cellOf(i) = slots(s) - 1
      i += 1
    }
  }

  /** The number of distinct keys. */
  def size: Int = m
  def first(c: Int): Int = firsts(c)
}

private[core] object KeyTable {

  /** Slots for `count` keys: a power of two, more than twice `count`. */
  def capacity(count: Int): Int = Integer.highestOneBit(math.max(count, 1)) * 4

  /** The d ints at offset `off` of `keys` mixed into one `Long`. A cell's
    * group in the index's cell order is `floorMod(hash, r)` and a key's first
    * slot comes from the high 32 bits, so the two do not follow each other. */
  def hash(keys: Array[Int], off: Int, d: Int): Long = {
    var h = 0L; var j = 0
    while (j < d) { h = (h + (keys(off + j) & 0xFFFFFFFFL)) * 0x9E3779B97F4A7C15L; j += 1 }
    h = (h ^ (h >>> 30)) * 0xBF58476D1CE4E5B9L
    h = (h ^ (h >>> 27)) * 0x94D049BB133111EBL
    h ^ (h >>> 31)
  }

  /** The slot at which a key of hash `h` starts probing in a table of `cap` slots. */
  def slot(h: Long, cap: Int): Int = (h >>> 32).toInt & (cap - 1)
}
