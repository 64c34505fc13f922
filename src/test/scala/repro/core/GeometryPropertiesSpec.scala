package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck properties for the pure geometric kernels every stage uses. */
class GeometryPropertiesSpec extends AnyFunSuite {

  private def check(name: String, p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, s"$name: ${res.status}")
  }

  private val coord = Gen.choose(-1000.0, 1000.0)
  private def vec(d: Int): Gen[Array[Double]] = Gen.listOfN(d, coord).map(_.toArray)

  test("Dist.leq agrees with sqrt(Dist.sq) for all d in 1..7") {
    for (d <- 1 to 7) check(s"d=$d", Prop.forAll(vec(d), vec(d), Gen.choose(0.0, 500.0)) {
      (a, b, eps) => Dist.leq(a, b, eps) == (math.sqrt(Dist.sq(a, b)) <= eps)
    })
  }

  test("Dist is a metric: symmetry and triangle inequality") {
    def dist(a: Array[Double], b: Array[Double]) = math.sqrt(Dist.sq(a, b))
    check("sym", Prop.forAll(vec(3), vec(3)) { (a, b) =>
      math.abs(dist(a, b) - dist(b, a)) < 1e-9
    })
    check("tri", Prop.forAll(vec(3), vec(3), vec(3)) { (a, b, c) =>
      dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
    })
  }

  test("BBox min/max distances bound the distance to every contained point") {
    check("bounds", Prop.forAll(vec(3), vec(3), vec(3), Gen.listOfN(3, Gen.choose(0.0, 1.0))) {
      (p, a, b, ts) =>
        val lo = a.zip(b).map { case (x, y) => math.min(x, y) }
        val hi = a.zip(b).map { case (x, y) => math.max(x, y) }
        // Random point inside the box via interpolation parameters ts.
        val q = lo.indices.map(i => lo(i) + ts(i) * (hi(i) - lo(i))).toArray
        val dq = Dist.sq(q, p)
        BBox.minSqDistTo(lo, hi, 0, 3, p, 0) <= dq + 1e-6 && dq <= BBox.maxSqDistTo(lo, hi, 0, 3, p, 0) + 1e-6
    })
  }

  test("BBox.minSqDist is zero iff boxes intersect, and bounds point pairs") {
    check("pair", Prop.forAll(vec(2), vec(2), vec(2), vec(2)) { (a1, a2, b1, b2) =>
      val boxA = BBox(a1.zip(a2).map(t => math.min(t._1, t._2)),
                      a1.zip(a2).map(t => math.max(t._1, t._2)))
      val boxB = BBox(b1.zip(b2).map(t => math.min(t._1, t._2)),
                      b1.zip(b2).map(t => math.max(t._1, t._2)))
      // Distance between any corner pair is >= box distance.
      val corners = Seq(a1, a2).flatMap(x => Seq(b1, b2).map(y => Dist.sq(
        boxA.lo.indices.map(i => math.max(boxA.lo(i), math.min(boxA.hi(i), x(i)))).toArray,
        boxB.lo.indices.map(i => math.max(boxB.lo(i), math.min(boxB.hi(i), y(i)))).toArray)))
      corners.forall(_ >= BBox.sqDistBetween(boxA.lo, boxA.hi, 0, boxB.lo, boxB.hi, 0, 2) - 1e-6)
    })
  }

  test("gridKey is translation-consistent: points within a cell share the key") {
    check("key", Prop.forAll(vec(3), Gen.choose(0.1, 50.0)) { (p, side) =>
      val k = CellIndex.gridKey(p, side)
      // The cell's box derived from the key contains the point.
      k.indices.forall { j =>
        val lo = k(j) * side; val hi = (k(j) + 1) * side
        p(j) >= lo - 1e-9 && p(j) < hi + 1e-9
      }
    })
  }

  test("cells have diagonal <= eps: any two points with the same key are within eps") {
    check("diag", Prop.forAll(Gen.choose(2, 7), Gen.choose(0.5, 100.0)) { (d, eps) =>
      val side = CellIndex.sideFor(eps, d)
      math.sqrt(d * side * side) <= eps + 1e-9
    })
  }
}
