package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestUtil}
import repro.baselines.{HpDbscan, NaiveDBSCAN, PdsDbscan}

/** Every exact algorithm against the sequential reference on degenerate
  * input: no or one point, duplicates, zero-width cells, cell centers that
  * coincide, pairs exactly ε apart, also far from the origin, collinear or
  * cocircular points in 2D, and points at opposite corners of a cell whose
  * float distance exceeds ε by rounding.
  *
  * The structured cases put points on an integer lattice of spacing ε, so
  * every distance is 0, exactly ε, or at least ε√2 > ε(1 + ρ); the lines and
  * circles also keep every distance out of (ε, ε(1 + ρ)]. There the
  * ρ-approximate variants must equal the reference too; on generated input
  * they must meet Gan & Tao's sandwich instead. Generated inputs put
  * coordinates on cell boundaries off the integer lattice. */
class DifferentialSpec extends SparkSpec {

  private val eps = 2.0
  private val minPts = 4
  private val rho = 0.01

  private def approximate(name: String): Boolean = name.startsWith("our-approx")

  /** (name, run) of every algorithm that applies at dimension d, at `e`
    * and `k` (ε and minPts). `HpDbscan` runs at its default slab count, which
    * is 1 on inputs this small, and at 2 and 3 slabs, where halos join them. */
  private def algorithms(d: Int, e: Double = eps, k: Int = minPts): Seq[(String, Array[Pt] => DBSCANResult)] = {
    val registered = DBSCANConfig.variants.map(_._1).filter(name => d == 2 || !name.startsWith("our-2d"))
    registered.map { name =>
      val cfg = DBSCANConfig.named(name, e, k, rho).get
      name -> ((pts: Array[Pt]) => DBSCAN.run(spark, spark.sparkContext.parallelize(pts.toSeq, 3), d, cfg))
    } ++ Seq("pdsdbscan" -> ((pts: Array[Pt]) => PdsDbscan.run(spark, pts, e, k))) ++
      Seq(0, 2, 3).map(slabs => s"hpdbscan slabs=$slabs" -> ((pts: Array[Pt]) => HpDbscan.run(spark, pts, e, k, slabs)))
  }

  private def pts(xs: Seq[Array[Double]]): Array[Pt] = xs.zipWithIndex.map { case (x, i) => Pt(i, x) }.toArray

  /** Groups of 1 to 5 duplicates on the sites of a 4^d lattice of spacing ε,
    * shifted by `offset` in every coordinate: a site and its axis neighbors
    * lie exactly ε apart. */
  private def lattice(d: Int, offset: Double): Array[Pt] = pts(for {
    site <- 0 until math.pow(4, d).toInt
    _ <- 0 until 1 + site * 7 % 5
  } yield Array.tabulate(d)(j => offset + eps * (site / math.pow(4, j).toInt % 4)))

  private def cases(d: Int): Seq[(String, Array[Pt])] = {
    val at = Array.fill(d)(0.5)
    Seq(
      "no points" -> Array.empty[Pt],
      "one point" -> pts(Seq(at)),
      "minPts - 1 duplicates" -> pts(Seq.fill(minPts - 1)(at)),
      "50 duplicates and a point exactly eps away on an axis" ->
        pts(Seq.fill(50)(at) :+ at.updated(0, 0.5 + eps)),
      "duplicate groups exactly eps apart" -> lattice(d, 0.0),
      "duplicate groups exactly eps apart, offset +1e8" -> lattice(d, 1e8),
      "duplicate groups exactly eps apart, offset -1e8" -> lattice(d, -1e8),
    ) ++ (if (d == 2) planarCases else Nil)
  }

  /** The points reached from `from` by each step in turn, `from` included. */
  private def chain(from: (Double, Double), steps: Seq[(Double, Double)]): Seq[Array[Double]] =
    steps.scanLeft(from) { case ((x, y), (dx, dy)) => (x + dx, y + dy) }.map { case (x, y) => Array(x, y) }

  /** Three chains of 7 points `step` apart on one line, joined by `gap1` and
    * `gap2`. Steps are shorter than ε/2, so chain points are core. */
  private def line(step: (Double, Double), gap1: (Double, Double), gap2: (Double, Double)): Array[Pt] =
    pts(chain((0.5, 0.5), Seq.fill(6)(step) ++ Seq(gap1) ++ Seq.fill(6)(step) ++ Seq(gap2) ++ Seq.fill(6)(step)))

  /** `k` points evenly spaced on the circle of radius `r` around `c`, then `c`. */
  private def circle(c: (Double, Double), r: Double, k: Int): Seq[Array[Double]] =
    (0 until k).map { i =>
      val a = 2 * math.Pi * i / k
      Array(c._1 + r * math.cos(a), c._2 + r * math.sin(a))
    } :+ Array(c._1, c._2)

  /** Collinear and cocircular 2D input: degenerate cases for Delaunay and
    * USEC. */
  private val planarCases: Seq[(String, Array[Pt])] = Seq(
    // The first gap is exactly ε, which joins two chains through their end points.
    "collinear points on an axis line with gaps" -> line((0.75, 0.0), (2.0, 0.0), (3.0, 0.0)),
    // Steps of length 0.625, gaps of 1.875 (joins) and 2.5 (separates).
    "collinear points on a slanted line with gaps" -> line((0.375, 0.5), (1.125, 1.5), (1.5, 2.0)),
    "collinear points on a diagonal line with gaps" -> line((0.5, 0.5), (1.25, 1.25), (1.5, 1.5)),
    // The center is core within ε of its circle of 12, and noise beyond ε of its circle of 24.
    "cocircular points and their centers" ->
      pts(circle((0.5, 0.5), 1.5, 12) ++ circle((20.5, 0.5), 3.0, 24)),
  )

  private def check(name: String, run: Array[Pt] => DBSCANResult, input: Array[Pt]): Unit =
    checkAt(eps, minPts)(name, run, input)

  /** `run` equals the reference at ε = `e` and minPts = `k` on `input`. */
  private def checkAt(e: Double, k: Int)(name: String, run: Array[Pt] => DBSCANResult, input: Array[Pt]): Unit = {
    val want = NaiveDBSCAN.run(input, e, k)
    try TestUtil.assertSameClustering(run(input), want)
    catch { case ex: Exception => fail(s"$name: ${ex.getMessage}", ex) }
  }

  for (d <- Seq(2, 3); (caseName, input) <- cases(d))
    test(s"every algorithm == naive on $caseName, d=$d") {
      for ((name, run) <- algorithms(d)) check(name, run, input)
    }

  /** Up to 80 points whose coordinates are multiples of the cell side ε/√d
    * (points on cell boundaries, at distances such as exactly ε) or uniform,
    * with up to 20 of them repeated, in random order. */
  private def generated(d: Int): Gen[List[List[Double]]] = {
    val side = CellIndex.sideFor(eps, d)
    val coord = Gen.oneOf(Gen.choose(-4, 4).map(_ * side), Gen.choose(-4 * side, 4 * side))
    for {
      fresh <- Gen.choose(1, 60).flatMap(Gen.listOfN(_, Gen.listOfN(d, coord)))
      copies <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, Gen.oneOf(fresh)))
      seed <- Gen.long
    } yield new scala.util.Random(seed).shuffle(fresh ++ copies)
  }

  /** `run`'s result on `input` meets the sandwich of a ρ-approximation. */
  private def checkApprox(name: String, run: Array[Pt] => DBSCANResult, input: Array[Pt]): Unit =
    try TestUtil.assertApproxValid(input, run(input), eps, minPts, rho)
    catch { case e: Exception => fail(s"$name: ${e.getMessage}", e) }

  /** Runs `checkOne` on every algorithm that `select`s, for 8 generated
    * inputs from a fixed seed. */
  private def forGenerated(d: Int, select: String => Boolean)(
      checkOne: (String, Array[Pt] => DBSCANResult, Array[Pt]) => Unit): Unit = {
    val prop = Prop.forAllNoShrink(generated(d)) { xs =>
      val input = pts(xs.map(_.toArray))
      for ((name, run) <- algorithms(d) if select(name)) checkOne(name, run, input)
      true
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(20200614L + d))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status)
  }

  for (d <- Seq(2, 3)) {
    test(s"every exact algorithm == naive on generated points, d=$d") {
      forGenerated(d, !approximate(_))(check)
    }
    test(s"every approximate algorithm meets the sandwich on generated points, d=$d") {
      forGenerated(d, approximate)(checkApprox)
    }
  }

  test("both USEC variants == naive on a pair just past the rounded bounds of the scan window") {
    // x = -1e-300 and 0 put the points in two cells with a zero x term; y is
    // the first double above t + eps, yet the distance test accepts the pair,
    // and t lies below the rounded y - eps too.
    for ((t, e) <- Seq((-1.732508522038529, 4.379240568077096), (-1.1586059033954257, 2.4912629621723132))) {
      val input = pts(Seq(Array(-1e-300, t), Array(0.0, math.nextUp(t + e))))
      assert(Dist.leq(input(0).x, input(1).x, e) && t < input(1).x(1) - e)
      val want = NaiveDBSCAN.run(input, e, 1)
      assert(want.numClusters === 1)
      for (name <- Seq("our-2d-grid-usec", "our-2d-box-usec")) {
        val got = DBSCAN.run(spark, spark.sparkContext.parallelize(input.toSeq, 2), 2,
          DBSCANConfig.named(name, e, 1, rho).get)
        withClue(s"$name t=$t eps=$e: ")(TestUtil.assertSameClustering(got, want))
      }
    }
  }

  test("every 2D algorithm == naive on two box-cell corners whose float diagonal exceeds eps") {
    // The second point is the float sum 187.22 + ε/√2 on both axes, so a
    // strip and a box that start at 187.22 and end at that sum hold both
    // points, yet their float distance exceeds ε.
    val e = 2.02423329661499
    val s = e / math.sqrt(2.0)
    val input = pts(Seq(Array(187.22, 187.22), Array(187.22 + s, 187.22 + s)))
    assert(!Dist.leq(input(0).x, input(1).x, e))
    assert(NaiveDBSCAN.run(input, e, 2).numCore === 0)
    for ((name, run) <- algorithms(2, e, 2)) checkAt(e, 2)(name, run, input)
  }

  test("every 3D algorithm == naive on the corners of grid cell -1 whose float diagonal exceeds eps") {
    // Cell −1 on each axis spans [−s, 0) at s = ε/√3, so both points share
    // one grid cell of that side, yet 3·s² rounds above ε² = 1.
    val s = 1.0 / math.sqrt(3.0)
    val input = pts(Seq(Array.fill(3)(-s), Array.fill(3)(-1e-300)))
    assert(!Dist.leq(input(0).x, input(1).x, 1.0))
    assert(NaiveDBSCAN.run(input, 1.0, 2).numCore === 0)
    for ((name, run) <- algorithms(3, 1.0, 2)) checkAt(1.0, 2)(name, run, input)
  }

  /** 1 to 12 pairs of points at opposite corners of one cell, with ε drawn
    * from [0.5, 5) and minPts from 1 to 3. The cell side s is either
    * `sideFor`'s or the float ε/√d. Per axis, grid cell k spans
    * [k·s, (k+1)·s): one point lies at k·s, the other at the largest double
    * below (k+1)·s, or at −1e-300 in cell −1, the cell whose float extent can
    * reach s. A third of the pairs lie in cell −1 on every axis; in another
    * third, each coordinate may move by an ulp to either side, or by ε. The
    * last third put one point at random in [−200, 200)^d and the other at
    * its float sum with s on every axis, the corners of a box cell. */
  private def cellCorners(d: Int): Gen[(Double, Int, List[List[Double]])] =
    for {
      e <- Gen.choose(0.5, 5.0)
      k <- Gen.choose(1, 3)
      side <- Gen.oneOf(CellIndex.sideFor(e, d), e / math.sqrt(d.toDouble))
      nudge = Gen.oneOf[Double => Double](identity[Double] _, math.nextUp(_: Double), math.nextDown(_: Double),
        (_: Double) + e, (_: Double) - e)
      grid = Gen.oneOf(Gen.const(List.fill(d)(-1)), Gen.listOfN(d, Gen.choose(-2, 1))).flatMap { keys =>
        val (lo, hi) = keys.map(c => (c * side, if (c == -1) -1e-300 else math.nextDown((c + 1) * side))).unzip
        if (keys.forall(_ == -1)) Gen.const(List(lo, hi))
        else for (f <- Gen.listOfN(2 * d, nudge)) yield
          List(lo.zip(f).map { case (x, g) => g(x) }, hi.zip(f.drop(d)).map { case (x, g) => g(x) })
      }
      box = Gen.listOfN(d, Gen.choose(-200.0, 200.0)).map(lo => List(lo, lo.map(_ + side)))
      pair = Gen.frequency(2 -> grid, 1 -> box)
      pairs <- Gen.choose(1, 12).flatMap(Gen.listOfN(_, pair))
    } yield (e, k, pairs.flatten)

  for (d <- 1 to 4) test(s"every exact algorithm == naive on opposite corners of cells on both sides of 0, d=$d") {
    val prop = Prop.forAllNoShrink(cellCorners(d)) { case (e, k, xs) =>
      val input = pts(xs.map(_.toArray))
      for ((name, run) <- algorithms(d, e, k) if !approximate(name))
        withClue(s"eps=$e minPts=$k points=${xs.map(_.mkString("(", ", ", ")")).mkString(" ")}: ")(checkAt(e, k)(name, run, input))
      true
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(10).withInitialSeed(Seed(20240601L + d)), prop)
    assert(res.passed, res.status)
  }

  test("every exact grid algorithm == naive on random points, d=1") {
    val input = TestUtil.uniformPts(300, 1, 60.0, 5L)
    for ((name, run) <- algorithms(1) if !approximate(name)) check(name, run, input)
  }
}
