package perfbench

import java.util.SplittableRandom
import repro.core._
import repro.geometry.{KDTree, QuadTree}
import scala.collection.mutable

/** Kernel microbenches, called directly with no SparkContext running. The
  * inputs are sampled from the workload's own cell index: point pairs and
  * point-to-cell queries between neighboring cells, candidate core-cell
  * pairs, and quadtrees built over its cells.
  *
  * Each kernel reports ns per call, the number of calls in one pass over its
  * sample, and *computed* bytes per call: the coordinate bytes of the points
  * the call may compare against (for `kdtree_within`, of the points it
  * returns). The bytes are derived from the inputs, not measured. */
object Kernels {
  val Names: Seq[String] = Seq("dist_leq", "bcp", "qt_rangecount", "qt_exists",
    "qt_approx_exists", "kdtree_within", "usec")

  private val MaxSample = 4096
  private val MinNs = 150L * 1000 * 1000

  /** One kernel's sample: `ops` calls per pass, `call(i)` makes the i-th. */
  private final case class Bench(ops: Int, bytesPerOp: Double, call: Int => Boolean)

  /** ρ of the approximate quadtree kernel: the paper's default. */
  private val Rho = 0.01

  def run(idx: CellIndex, flags: Array[Boolean], ctx: ConnCtx, eps: Double,
          seed: Long): Map[String, Double] = {
    val rnd = new SplittableRandom(seed)
    val d = idx.d
    val ptBytes = 8.0 * d
    val e2 = eps * eps
    val m = idx.numCells

    // (point, neighbor cell) queries MarkCore makes: the point lies within ε
    // of the neighbor's box.
    val queries = mutable.ArrayBuffer[(Pt, Int)]()
    var tries = 0
    while (queries.size < MaxSample && tries < MaxSample * 16) {
      tries += 1
      val c = rnd.nextInt(m)
      val nbs = idx.neighbors(c)
      if (nbs.nonEmpty) {
        val p = idx.pts(c)(rnd.nextInt(idx.size(c)))
        val h = nbs(rnd.nextInt(nbs.length))
        if (idx.minSqDistToCell(h, p.x) <= e2) queries += ((p, h))
      }
    }
    val pairs = queries.map { case (p, h) => (p, idx.pts(h)(rnd.nextInt(idx.size(h)))) }

    // Candidate core-cell pairs ClusterCore may query.
    val corePairs = (0 until m).iterator
      .filter(ctx.coreCount(_) > 0)
      .flatMap(g => idx.neighbors(g).iterator.filter(h => h < g && ctx.coreCount(h) > 0).map(h => (g, h)))
      .toArray
    val cellPairs = sample(corePairs, rnd)

    // Quadtrees over the cells the sampled queries hit, as MarkCore (all
    // points) and ConnCtx (core points, exact or ρ-approximate) build them.
    val qtCells = (queries.map(_._2) ++ cellPairs.map(_._2)).distinct
    def corePts(c: Int) = idx.pts(c).filter(p => flags(p.id.toInt))
    val allQt = qtCells.map(c => c -> QuadTree.build(idx.pts(c), idx.qtLo(c), idx.cellSide)).toMap
    val coreQts = qtCells.filter(ctx.coreCount(_) > 0).map(c =>
      c -> QuadTree.build(corePts(c), idx.qtLo(c), idx.cellSide)).toMap
    val approxQts = coreQts.keys.map(c =>
      c -> QuadTree.buildApprox(corePts(c), idx.qtLo(c), idx.cellSide, Rho * idx.cellSide)).toMap
    val coreQueries = queries.filter(q => coreQts.contains(q._2))

    // The neighbor-cell lookup of CellIndex.finalize: a k-d tree over cell
    // centers queried at radius ε + max cell diagonal.
    val centers = Array.tabulate(m) { c =>
      val bb = idx.bbox(c); Pt(c, bb.center)
    }
    val maxDiag = (0 until m).iterator.map(c => math.sqrt(Dist.sq(idx.tightLo(c), idx.tightHi(c)))).max
    val kd = KDTree.build(centers)
    val kdQueries = sample(centers, rnd)

    val usecCtx =
      if (d != 2) None
      else {
        val s0 = Array.tabulate(m)(c => corePts(c).sortBy(_.x(0)))
        val s1 = Array.tabulate(m)(c => corePts(c).sortBy(_.x(1)))
        Some(new ConnCtx(ctx.coreCount, ctx.coreLo, ctx.coreHi, null, s0, s1))
      }

    def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

    val benches: Map[String, Bench] = Map(
      "dist_leq" -> Bench(pairs.size, 2 * ptBytes,
        i => Dist.leq(pairs(i)._1.x, pairs(i)._2.x, eps)),
      "bcp" -> Bench(cellPairs.length,
        mean(cellPairs.map { case (g, h) => (idx.size(g) + idx.size(h)) * ptBytes }),
        i => CellGraph.bcpConnected(idx, ctx, cellPairs(i)._1, cellPairs(i)._2, flags)),
      "qt_rangecount" -> Bench(queries.size, mean(queries.map(q => idx.size(q._2) * ptBytes)),
        i => allQt(queries(i)._2).rangeCount(queries(i)._1.x, eps) > 0),
      "qt_exists" -> Bench(coreQueries.size, mean(coreQueries.map(q => ctx.coreCount(q._2) * ptBytes)),
        i => coreQts(coreQueries(i)._2).existsWithin(coreQueries(i)._1.x, eps)),
      "qt_approx_exists" -> Bench(coreQueries.size,
        mean(coreQueries.map(q => ctx.coreCount(q._2) * ptBytes)),
        i => approxQts(coreQueries(i)._2).approxExists(coreQueries(i)._1.x, eps, Rho)),
      "kdtree_within" -> Bench(kdQueries.length,
        mean(kdQueries.map(q => kd.within(q.x, eps + maxDiag).length * ptBytes)),
        i => kd.within(kdQueries(i).x, eps + maxDiag).length > 1),
      "usec" -> (usecCtx match {
        case Some(uc) => Bench(cellPairs.length,
          mean(cellPairs.map { case (g, h) => (ctx.coreCount(g) + ctx.coreCount(h)) * ptBytes }),
          i => CellGraph.usecConnected(idx, uc, cellPairs(i)._1, cellPairs(i)._2))
        case None => Bench(0, 0.0, _ => false) // USEC is 2D-only
      }),
    )

    Names.flatMap { k =>
      val b = benches(k)
      val (ns, hits) = time(b)
      Seq(s"kernel.$k.ns" -> ns, s"kernel.$k.ops" -> b.ops.toDouble,
        s"kernel.$k.bytes_per_op" -> b.bytesPerOp) ++
        (if (k == "bcp") Seq("kernel.bcp.hit_frac" -> (if (b.ops > 0) hits.toDouble / b.ops else 0.0))
         else Nil)
    }.toMap
  }

  private def sample[A: scala.reflect.ClassTag](xs: Array[A], rnd: SplittableRandom): Array[A] =
    if (xs.length <= MaxSample) xs
    else Array.fill(MaxSample)(xs(rnd.nextInt(xs.length)))

  /** Median ns per call over passes of the whole sample, after one warm-up
    * pass: at least three passes and at least 150 ms in all. */
  private def time(b: Bench): (Double, Int) = {
    if (b.ops == 0) return (0.0, 0)
    def pass(): (Long, Int) = {
      var hits = 0
      val t0 = System.nanoTime()
      var i = 0
      while (i < b.ops) { if (b.call(i)) hits += 1; i += 1 }
      (System.nanoTime() - t0, hits)
    }
    val (_, hits) = pass()
    val perPass = mutable.ArrayBuffer[Double]()
    var total = 0L
    while (perPass.size < 3 || total < MinNs) {
      val (ns, _) = pass()
      total += ns
      perPass += ns.toDouble / b.ops
    }
    (Stats.median(perPass.toSeq), hits)
  }
}
