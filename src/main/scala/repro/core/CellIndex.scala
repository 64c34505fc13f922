package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import org.apache.spark.SparkContext
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
  * points. The cell keys only group the points and are not kept. The index stores per-cell counts and derives the
  * two offset arrays once per JVM: counts compress to a third of the size of
  * offsets under Spark's broadcast codec.
  *
  * Cells are disjoint with per-dimension extent ≤ ε/√d, so all points inside
  * one cell are within ε of each other — the invariant both MarkCore's
  * all-core shortcut and ClusterCore's cell graph rely on.
  *
  * The index is built distributed (cell assignment + grouping runs as a Spark
  * shuffle, playing the role of the paper's work-efficient semisort) and then
  * broadcast, emulating shared memory on the single-node cluster: per-cell
  * tasks get random access to any neighboring cell's points. It holds only
  * scalars and primitive arrays, so Java serialization is already a compact
  * broadcast format. The per-cell accessors slice on every call; hot loops
  * read the flat arrays.
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
    // Strip and per-strip y boundaries from the sorted coordinates (a driver
    // scan over primitive arrays — the O(n) sequential dependence the paper
    // removes with pointer jumping; at single-node scale it is negligible).
    val xy = pts.flatMap(p => checked(p, 2).x).collect()
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
    * The paper's work-efficient semisort groups points by cell id without
    * ordering; the Spark analogue is a combiner-style shuffle: each partition
    * pre-groups its points into primitive-packed (ids, coords) arrays per
    * cell (PBBS's per-block histograms), then `reduceByKey` concatenates in
    * as many tasks as `points` has partitions — only flat arrays cross the
    * shuffle, never per-point objects. The driver concatenates the cells
    * into the cell-ordered layout, then finds each cell's neighbors with
    * `neighborLists`. */
  private def build(points: RDD[Pt], eps: Double, d: Int, par: Int)(key: Pt => ArraySeq[Int]): CellIndex = {
    val grouped = points
      .mapPartitions { it =>
        val local = mutable.HashMap[ArraySeq[Int], (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]()
        it.foreach { p =>
          val (ids, cs) = local.getOrElseUpdate(key(checked(p, d)),
            (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
          ids += p.id.toInt
          cs ++= p.x
        }
        local.iterator.map { case (k, (ids, cs)) => (k, (ids.result(), cs.result())) }
      }
      .reduceByKey((a, b) => (a._1 ++ b._1, a._2 ++ b._2), points.getNumPartitions)
      .collect()
    val m = grouped.length
    val sizes = grouped.map(_._2._1.length)
    val start = sizes.scanLeft(0)(_ + _)
    val ids = new Array[Int](start(m))
    val coords = new Array[Double](start(m) * d)
    val lo = new Array[Double](m * d)
    val hi = new Array[Double](m * d)
    for (c <- 0 until m) {
      val (is, cs) = grouped(c)._2
      System.arraycopy(is, 0, ids, start(c), is.length)
      System.arraycopy(cs, 0, coords, start(c) * d, cs.length)
      val bb = BBox.of(cs, d, is.indices)
      System.arraycopy(bb.lo, 0, lo, c * d, d)
      System.arraycopy(bb.hi, 0, hi, c * d, d)
    }
    requireDense(ids.length)(ids(_))
    val lists = neighborLists(points.sparkContext, lo, hi, d, eps, par)
    new CellIndex(eps, sideFor(eps, d), d, sizes, ids, coords, lo, hi, lists.map(_.length), lists.flatten)
  }

  /** For each of the m boxes that are the `d` values at offset c·d of `lo`
    * and `hi`, the sorted ids of the other boxes within `eps` of it — its
    * neighboring cells. A k-d tree over the box centers finds the candidates
    * (paper §5.1: enumerating the neighbor cells is exponential in d, the
    * tree finds only the non-empty ones): centers within ε + the largest box
    * diagonal cover every box within ε, and the box distance filters them.
    * The per-box queries are one [[Par.perCell]] pass over the broadcast tree
    * and boxes; on the driver they are the bottleneck when most cells hold
    * one point. */
  private[repro] def neighborLists(sc: SparkContext, lo: Array[Double], hi: Array[Double], d: Int,
                                   eps: Double, par: Int): Array[Array[Int]] = {
    val m = lo.length / d
    val centers = Array.tabulate(m * d)(i => (lo(i) + hi(i)) / 2)
    // A box's squared diagonal is its corner `lo`'s squared distance to its far corner.
    val maxDiag2 = (0 until m).iterator.map(c => BBox.maxSqDistTo(lo, hi, c * d, d, lo, c * d)).maxOption
    val r = eps + math.sqrt(maxDiag2.getOrElse(0.0))
    val e2 = eps * eps
    Par.sharing(sc) { share =>
      val bc = share((KDTree.over(centers, d, Array.range(0, m)), lo, hi))
      Par.perCell(sc, 0 until m, par) { c =>
        val (tree, bl, bh) = bc.value
        val q = Array.tabulate(d)(j => (bl(c * d + j) + bh(c * d + j)) / 2)
        val near = tree.within(q, r).filter(h => h != c && BBox.sqDistBetween(bl, bh, c * d, bl, bh, h * d, d) <= e2)
        java.util.Arrays.sort(near)
        Some(near)
      }
    }
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
