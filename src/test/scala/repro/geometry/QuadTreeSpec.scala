package repro.geometry

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dist, Pt}

import java.util.SplittableRandom

/** Quadtree (2^d-tree) exact and ρ-approximate range counting. */
class QuadTreeSpec extends AnyFunSuite {

  private def cellPts(n: Int, d: Int, lo: Double, side: Double, seed: Long): Array[Pt] = {
    val rnd = new SplittableRandom(seed)
    Array.tabulate(n)(i => Pt(i, Array.fill(d)(lo + rnd.nextDouble() * side)))
  }

  private def bruteCount(pts: Array[Pt], q: Array[Double], r: Double): Int =
    pts.count(p => Dist.sq(p.x, q) <= r * r)

  /** `count`'s contract on an exact tree: the true count below `limit`, else
    * a value between `limit` and the true count. */
  private def assertLimited(c: Int, brute: Int, limit: Int): Unit =
    if (brute < limit) assert(c === brute, s"limit $limit")
    else assert(c >= limit && c <= brute, s"count $c outside [$limit, $brute]")

  for {
    d <- Seq(1, 2, 3, 5)
    n <- Seq(1, 20, 300)
    seed <- Seq(5L, 6L)
  } test(s"exact rangeCount matches brute force d=$d n=$n seed=$seed") {
    val side = 10.0
    val pts = cellPts(n, d, 100.0, side, seed)
    val qt = QuadTree.build(pts, Array.fill(d)(100.0), side)
    val rnd = new SplittableRandom(seed * 31)
    for (_ <- 0 until 40) {
      val q = Array.fill(d)(95.0 + rnd.nextDouble() * 20)
      val r = rnd.nextDouble() * 15
      assert(qt.rangeCount(q, r) === bruteCount(pts, q, r))
      assert(qt.existsWithin(q, r) === (bruteCount(pts, q, r) > 0))
      val b = bruteCount(pts, q, r)
      val flat = Array.fill(3)(-1.0) ++ q
      assert(qt.count(flat, 3, r, Int.MaxValue) === b)
      for (limit <- Seq(1, b, b - 1)) assertLimited(qt.count(q, 0, r, limit), b, limit)
    }
  }

  for {
    d <- Seq(2, 3)
    rho <- Seq(0.01, 0.1, 0.5, 1.0)
    seed <- Seq(8L, 9L)
  } test(s"approx count is sandwiched between eps and eps(1+rho) counts d=$d rho=$rho seed=$seed") {
    val side = 10.0
    val eps = side * math.sqrt(d.toDouble) // cell diagonal, as in DBSCAN
    // 2^d × 400 points: leaves of 16 points, about as deep as 400 in leaves of 4.
    val pts = cellPts((1 << d) * 400, d, 0.0, side, seed)
    val qt = QuadTree.buildApprox(pts, Array.fill(d)(0.0), side, minSide = rho * side)
    val rnd = new SplittableRandom(seed * 77)
    for (_ <- 0 until 60) {
      val q = Array.fill(d)(rnd.nextDouble() * 3 * side - side)
      val c = qt.count(q, 0, eps, Int.MaxValue)
      val lo = bruteCount(pts, q, eps)
      val hi = bruteCount(pts, q, eps * (1 + rho))
      assert(c >= lo && c <= hi, s"approx count $c outside [$lo, $hi]")
      val ex = qt.approxExists(q, eps, rho)
      if (lo > 0) assert(ex)
      if (hi == 0) assert(!ex)
    }
  }

  test("empty-range queries return zero") {
    val pts = cellPts(50, 2, 0.0, 10.0, 1L)
    val qt = QuadTree.build(pts, Array(0.0, 0.0), 10.0)
    assert(qt.rangeCount(Array(1000.0, 1000.0), 5.0) === 0)
    assert(!qt.existsWithin(Array(1000.0, 1000.0), 5.0))
  }

  test("duplicate points do not break construction") {
    val pts = Array.tabulate(100)(i => Pt(i, Array(5.0, 5.0)))
    val qt = QuadTree.build(pts, Array(0.0, 0.0), 10.0)
    assert(qt.rangeCount(Array(5.0, 5.0), 0.0) === 100)
    assert(qt.rangeCount(Array(0.0, 0.0), 20.0) === 100) // the tree holds every point
  }

  test("trees count correctly up to d = 32 and reject d = 33") {
    // The child index packs one bit per dimension into 32 bits, so d = 33
    // must be rejected rather than wrap points into a child whose box does
    // not hold them.
    val pts = cellPts(400, 32, 0.0, 10.0, 31L)
    val qt = QuadTree.build(pts, Array.fill(32)(0.0), 10.0)
    for (p <- pts.take(200)) assert(qt.rangeCount(p.x, 0.1) === bruteCount(pts, p.x, 0.1))
    val e = intercept[IllegalArgumentException](
      QuadTree.build(cellPts(400, 33, 0.0, 10.0, 31L), Array.fill(33)(0.0), 10.0))
    assert(e.getMessage.contains("d = 33"))
  }

  test("high-dimensional tree (d=13) counts correctly") {
    val d = 13
    val pts = cellPts(200, d, 0.0, 4.0, 21L)
    val qt = QuadTree.build(pts, Array.fill(d)(0.0), 4.0)
    val rnd = new SplittableRandom(22)
    for (_ <- 0 until 10) {
      val q = Array.fill(d)(rnd.nextDouble() * 4)
      val r = rnd.nextDouble() * 6
      assert(qt.rangeCount(q, r) === bruteCount(pts, q, r))
    }
  }
}
