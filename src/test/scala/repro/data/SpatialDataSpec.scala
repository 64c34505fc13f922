package repro.data

import repro.{SparkSpec, TestUtil}
import repro.core.CellIndex

/** Generators: determinism, shape traits each stand-in must reproduce. */
class SpatialDataSpec extends SparkSpec {

  test("seed spreader: dense ids, domain bounds, determinism") {
    val a = TestUtil.collect(SpatialData.seedSpreader(spark, 5000, 3, seed = 1))
    val b = TestUtil.collect(SpatialData.seedSpreader(spark, 5000, 3, seed = 1))
    assert(a.length === 5000)
    assert(a.map(_.id).toSeq === (0L until 5000L))
    assert(a.zip(b).forall { case (p, q) => p.x.sameElements(q.x) })
    assert(a.forall(_.x.forall(v => v >= 0 && v <= SpatialData.DomainSide)))
  }

  test("seed spreader varden has wider density range than simden") {
    def cellCounts(varden: Boolean): Seq[Int] = {
      val pts = TestUtil.collect(SpatialData.seedSpreader(spark, 20000, 2,
        varden = varden, noiseFrac = 0.0, seed = 3))
      pts.groupBy(p => CellIndex.gridKey(p.x, 200.0)).values.map(_.length).toSeq
    }
    val sim = cellCounts(varden = false)
    val varden = cellCounts(varden = true)
    // varden spreads the same points over a much larger spatial footprint
    // per sparse segment: more cells, lower median occupancy.
    assert(varden.size > sim.size)
  }

  test("seed spreader forms ~numRestarts dense regions") {
    val pts = TestUtil.collect(SpatialData.seedSpreader(spark, 20000, 2,
      numRestarts = 10, noiseFrac = 0.0, seed = 5))
    // Count distinct coarse regions with substantial population.
    val coarse = pts.groupBy(p => CellIndex.gridKey(p.x, 5000.0)).values.count(_.length > 200)
    assert(coarse >= 5 && coarse <= 40, s"got $coarse dense coarse cells")
  }

  test("uniformFill lives in a sqrt(n)-sided cube") {
    val n = 10000
    val pts = TestUtil.collect(SpatialData.uniformFill(spark, n, 3, seed = 7))
    val side = math.sqrt(n.toDouble)
    assert(pts.length === n)
    assert(pts.forall(_.x.forall(v => v >= 0 && v <= side)))
  }

  test("geoLifeSim is heavily skewed: a few cells hold most points") {
    val pts = TestUtil.collect(SpatialData.geoLifeSim(spark, 20000))
    val counts = pts.groupBy(p => CellIndex.gridKey(p.x, 1000.0)).values
      .map(_.length).toSeq.sorted.reverse
    // The dense "city" blob can straddle grid boundaries, so measure the
    // top-8 cells (the blob splits across at most 2^3 cells).
    val top8 = counts.take(8).sum
    assert(top8 >= pts.length * 0.5, s"top-8 cells hold $top8 of ${pts.length}")
    assert(counts.head >= 20 * math.max(1, counts(counts.length / 2)),
      "densest cell should dwarf the median cell")
  }

  test("teraClickSim collapses into one cell at the paper's eps") {
    val pts = TestUtil.collect(SpatialData.teraClickSim(spark, 2000))
    assert(pts.head.d === 13)
    val side = CellIndex.sideFor(1500.0, 13)
    val keys = pts.map(p => CellIndex.gridKey(p.x, side)).distinct
    assert(keys.length === 1, s"expected single cell, got ${keys.length}")
  }

  test("osmSim is 2D with dense city blobs over background") {
    val pts = TestUtil.collect(SpatialData.osmSim(spark, 20000))
    assert(pts.head.d === 2)
    val counts = pts.groupBy(p => CellIndex.gridKey(p.x, 2000.0)).values.map(_.length).toSeq.sorted
    assert(counts.last > 10 * math.max(1, counts(counts.length / 2)),
      "densest cell should far exceed the median")
  }

  test("generators are independent of parallelism") {
    val a = TestUtil.collect(SpatialData.osmSim(spark, 3000))
    assert(a.map(_.id).toSeq === (0L until 3000L))
    val c = TestUtil.collect(SpatialData.cosmoSim(spark, 3000))
    assert(c.length === 3000 && c.head.d === 3)
  }
}
