package repro.core

import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestUtil}
import repro.baselines.NaiveDBSCAN

/** 2D box cell construction (paper §4.2). */
class BoxCellsSpec extends SparkSpec {

  for {
    (n, seed) <- Seq((400, 1L), (800, 2L))
    eps <- Seq(2.0, 6.0)
  } test(s"box cells partition the points with extent <= eps/sqrt(2) (n=$n eps=$eps seed=$seed)") {
    val pts = TestUtil.blobPts(n, 2, numBlobs = 5, sigma = 3.0, extent = 60.0,
      noiseFrac = 0.1, seed = seed)
    val idx = CellIndex.box2d(spark.sparkContext.parallelize(pts.toSeq, 4), eps)
    val side = CellIndex.sideFor(eps, 2)

    val allIds = (0 until idx.numCells).flatMap(idx.pts).map(_.id).sorted
    assert(allIds.toSeq === (0L until n.toLong))

    for (c <- 0 until idx.numCells; j <- 0 until 2)
      assert(idx.tightHi(c)(j) - idx.tightLo(c)(j) <= side,
        s"cell $c dim $j extent too large")

    // Strips: cells in different strips never overlap in x beyond side.
    val e2 = eps * eps
    for (a <- 0 until idx.numCells; b <- 0 until idx.numCells if a != b) {
      val near = BBox.sqDistBetween(idx.cellLo, idx.cellHi, a * 2, idx.cellLo, idx.cellHi, b * 2, 2) <= e2
      assert(idx.neighbors(a).contains(b) === near)
    }
  }

  test("strip boundaries start new strips beyond side width") {
    // Points at x = 0, 0.5, 1.2, 2.5 with side 1.0: strips {0, 0.5}, {1.2}, {2.5}.
    val eps = math.sqrt(2.0)
    val pts = Array(
      Pt(0, Array(0.0, 0.0)), Pt(1, Array(0.5, 0.0)),
      Pt(2, Array(1.2, 0.0)), Pt(3, Array(2.5, 0.0)))
    val idx = CellIndex.box2d(spark.sparkContext.parallelize(pts.toSeq, 1), eps)
    assert(idx.numCells === 3)
    // Every y is 0, so each strip is one cell.
    val strip = TestUtil.cellOf(idx)
    assert(strip(0) === strip(1))
    assert(strip(1) !== strip(2))
    assert(strip(2) !== strip(3))
  }

  for (seed <- Seq(5L, 6L, 7L)) test(s"box-cell DBSCAN equals grid-cell DBSCAN end-to-end (seed=$seed)") {
    val pts = TestUtil.blobPts(600, 2, numBlobs = 4, sigma = 2.0, extent = 50.0,
      noiseFrac = 0.15, seed = seed)
    val rdd = spark.sparkContext.parallelize(pts.toSeq, 4)
    val eps = 2.5; val minPts = 10
    val grid = DBSCAN.run(spark, rdd, 2, DBSCANConfig(eps, minPts, cellMethod = GridCells))
    val box  = DBSCAN.run(spark, rdd, 2, DBSCANConfig(eps, minPts, cellMethod = BoxCells))
    TestUtil.assertSameClustering(box, grid)
    TestUtil.assertSameClustering(grid, NaiveDBSCAN.run(pts, eps, minPts))
  }

  test("box cells group the points the same way at every partition count") {
    val eps = 3.0
    for (pts <- Seq(TestUtil.blobPts(500, 2, 4, 2.0, 40.0, 0.2, 8L), TestUtil.uniformPts(5, 2, 10.0, 8L))) {
      val want = TestUtil.cellSets(CellIndex.box2d(spark.sparkContext.parallelize(pts.toSeq, 1), eps, par = 1))
      for (parts <- Seq(1, 2, 3, 4, 7)) {
        val input = spark.sparkContext.parallelize(pts.toSeq, parts)
        val idx = CellIndex.box2d(input, eps, par = parts)
        assert(TestUtil.cellSets(idx) === want, s"$parts partitions")
        TestUtil.assertLaidOut(idx, pts)
        TestUtil.assertSameIndex(CellIndex.box2d(input, eps, par = parts), idx)
      }
    }
  }

  test("box2d computes its input once, and leaves it as persisted as it was") {
    val pts = TestUtil.blobPts(300, 2, 3, 2.0, 30.0, 0.2, 9L)
    val reads = spark.sparkContext.longAccumulator("box2d reads")
    val input = spark.sparkContext.parallelize(pts.toSeq, 4).map { p => reads.add(1); p }
    val idx = CellIndex.box2d(input, 3.0)
    assert(reads.value === 300)
    assert(input.getStorageLevel === StorageLevel.NONE)
    TestUtil.assertLaidOut(idx, pts)
    val cached = input.cache()
    try {
      CellIndex.box2d(cached, 3.0)
      assert(cached.getStorageLevel === StorageLevel.MEMORY_ONLY)
    } finally cached.unpersist()
  }
}
