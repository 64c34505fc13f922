package repro.geometry

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Dist, Pt}

import java.util.SplittableRandom

/** k-d tree vs brute force over many random configurations. */
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
}
