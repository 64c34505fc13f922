package repro.geometry

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{BBox, Dist, Pt}

import java.util.SplittableRandom

/** k-d tree vs brute force over many random configurations, over points and
  * over boxes. */
class KDTreeSpec extends AnyFunSuite {

  private def brute(pts: Array[Pt], q: Array[Double], r: Double): Array[Pt] =
    pts.filter(p => Dist.sq(p.x, q) <= r * r)

  for {
    d <- Seq(1, 2, 3, 5, 7)
    n <- Seq(1, 17, 200)
    seed <- Seq(1L, 2L)
  } test(s"countWithin/within match brute force d=$d n=$n seed=$seed") {
    val pts = TestUtil.uniformPts(n, d, 100.0, seed)
    val tree = KDTree.build(pts)
    val rnd = new SplittableRandom(seed + 99)
    for (_ <- 0 until 30) {
      val q = Array.fill(d)(rnd.nextDouble() * 120 - 10)
      val r = rnd.nextDouble() * 60
      val want = brute(pts, q, r)
      assert(tree.countWithin(q, r) === want.length)
      assert(tree.within(q, r).sorted.toSeq === want.map(_.id.toInt).sorted.toSeq)
    }
    // Every point queried in place, at its offset of a flat copy of the set.
    val flat = pts.flatMap(_.x)
    for (i <- pts.indices; r <- Seq(0.0, 15.0)) {
      val want = brute(pts, pts(i).x, r)
      assert(tree.countWithin(flat, i * d, r) === want.length)
      assert(tree.within(flat, i * d, r).sorted.toSeq === want.map(_.id.toInt).sorted.toSeq)
    }
  }

  test("an empty tree holds and finds nothing") {
    for (tree <- Seq(KDTree.build(Array.empty[Pt]), KDTree.over(Array.empty[Double], 3, Array.empty[Int]))) {
      assert(tree.size === 0)
      assert(tree.countWithin(Array(0.0, 0.0, 0.0), 1e300) === 0)
      assert(tree.within(Array(0.0, 0.0, 0.0), 1e300).isEmpty)
    }
  }

  test("integer points exactly r apart are within r of each other") {
    // A 9 x 9 lattice of spacing 2 with each site twice: its axis neighbors
    // lie exactly r = 2 away, its diagonal ones 2√2 away.
    val pts = Array.tabulate(162)(i => Pt(i, Array(2.0 * (i / 2 % 9), 2.0 * (i / 18))))
    val tree = KDTree.build(pts)
    for (i <- pts.indices) {
      val want = brute(pts, pts(i).x, 2.0)
      assert(want.length >= 6) // the site and at least two axis neighbors
      assert(tree.countWithin(pts(i).x, 2.0) === want.length)
      assert(tree.within(pts(i).x, 2.0).sorted.toSeq === want.map(_.id.toInt).sorted.toSeq)
    }
  }

  test("duplicate points are all counted") {
    val pts = Array.tabulate(40)(i => Pt(i, Array(1.0, 2.0)))
    val tree = KDTree.build(pts)
    assert(tree.countWithin(Array(1.0, 2.0), 0.0) === 40)
    assert(tree.countWithin(Array(5.0, 2.0), 1.0) === 0)
  }

  test("size reflects the number of points") {
    assert(KDTree.build(TestUtil.uniformPts(123, 3, 10.0, 3L)).size === 123)
  }

  test("radius boundary is inclusive") {
    val pts = Array(Pt(0, Array(0.0, 0.0)), Pt(1, Array(3.0, 4.0)))
    val tree = KDTree.build(pts)
    assert(tree.countWithin(Array(0.0, 0.0), 5.0) === 2)
    assert(tree.countWithin(Array(0.0, 0.0), 4.999) === 1)
  }

  for {
    d <- 1 to 7
    n <- Seq(1, 17, 300)
  } test(s"withinBox matches the box distance by brute force d=$d n=$n") {
    // Boxes of random extent, a tenth of them single points, some repeated.
    val rnd = new SplittableRandom(d * 1000L + n)
    val lo = Array.fill(n * d)(rnd.nextDouble() * 100)
    val hi = Array.tabulate(n * d)(i => if (i / d % 10 == 0) lo(i) else lo(i) + rnd.nextDouble() * 8)
    if (n > 1) { System.arraycopy(lo, 0, lo, d, d); System.arraycopy(hi, 0, hi, d, d) }
    val tree = KDTree.overBoxes(lo, hi, d, Array.tabulate(n)(i => 1000 + i))
    assert(tree.size === n)
    def brute(qlo: Array[Double], qhi: Array[Double], off: Int, r: Double) =
      (0 until n).filter(b => BBox.sqDistBetween(qlo, qhi, off, lo, hi, b * d, d) <= r * r).map(1000 + _)
    for (i <- 0 until n; r <- Seq(0.0, rnd.nextDouble() * 30))
      assert(tree.withinBox(lo, hi, i * d, r).sorted.toSeq === brute(lo, hi, i * d, r), s"box $i r=$r")
    for (_ <- 0 until 20) {
      val qlo = Array.fill(d)(rnd.nextDouble() * 120 - 10)
      val qhi = qlo.map(_ + rnd.nextDouble() * 5)
      val r = rnd.nextDouble() * 40
      assert(tree.withinBox(qlo, qhi, 0, r).sorted.toSeq === brute(qlo, qhi, 0, r))
    }
  }

  test("an empty box tree finds nothing") {
    val tree = KDTree.overBoxes(Array.empty[Double], Array.empty[Double], 2, Array.empty[Int])
    assert(tree.size === 0)
    assert(tree.withinBox(Array(0.0, 0.0), Array(1.0, 1.0), 0, 1e300).isEmpty)
  }
}
