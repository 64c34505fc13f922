package repro.baselines

import repro.{SparkSpec, TestUtil}

/** HPDBSCAN stand-in is exact: must equal the sequential reference for any
  * slab count, including slabs narrower than ε (multi-slab halos). */
class HpDbscanSpec extends SparkSpec {

  for {
    d <- Seq(2, 3)
    slabs <- Seq(1, 4, 13)
    (eps, minPts) <- Seq((2.0, 6), (4.0, 18))
    seed <- Seq(1L, 2L)
  } test(s"hpdbscan == naive d=$d slabs=$slabs eps=$eps minPts=$minPts seed=$seed") {
    val pts = TestUtil.blobPts(400, d, 4, 2.0, 40.0, 0.2, seed * 29 + d)
    val got = HpDbscan.run(spark, pts, eps, minPts, numSlabs0 = slabs)
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, eps, minPts))
  }

  test("clusters spanning slab boundaries are merged") {
    // A single dense line along x: every slab boundary cuts the cluster.
    val pts = Array.tabulate(200)(i => repro.core.Pt(i, Array(i * 0.4, 0.0)))
    val got = HpDbscan.run(spark, pts, eps = 1.0, minPts = 3, numSlabs0 = 8)
    assert(got.numClusters === 1)
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, 1.0, 3))
  }

  test("a slab's halo holds a point that Dist.leq puts within eps of its slab's points") {
    // q lies just past the rounded x + eps, yet the distance test accepts
    // the pair; with 2 slabs the boundary is q's x. Both points are core.
    for ((x, eps) <- Seq((-2.6929631147332174, 2.162778592980103), (-3.416679310379834, 3.579335989864997))) {
      val q = math.nextUp(x + eps)
      val pts = Array(repro.core.Pt(0, Array(x, 0.0)), repro.core.Pt(1, Array(q, 0.0)))
      assert(repro.core.Dist.leq(pts(0).x, pts(1).x, eps))
      val got = HpDbscan.run(spark, pts, eps, minPts = 2, numSlabs0 = 2)
      TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, eps, 2))
      assert(got.isCore.forall(identity), s"x=$x eps=$eps")
    }
  }

  test("slabs narrower than eps still produce exact results") {
    val pts = TestUtil.blobPts(300, 2, 2, 1.5, 20.0, 0.2, 31L)
    val got = HpDbscan.run(spark, pts, eps = 5.0, minPts = 10, numSlabs0 = 16)
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, 5.0, 10))
  }
}
