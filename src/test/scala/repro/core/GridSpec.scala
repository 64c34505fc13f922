package repro.core

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil.assignCellsDF

/** Grid cell construction (paper §4.1) — DataFrame assignment vs DuckDB, and
  * the CellIndex invariants every later stage relies on. */
class GridSpec extends SparkSpec {

  for {
    d <- Seq(2, 3, 5)
    eps <- Seq(3.0, 10.0)
  } test(s"DataFrame cell assignment matches DuckDB floor arithmetic d=$d eps=$eps") {
    val pts = TestUtil.uniformPts(300, d, 50.0, seed = d * 100 + eps.toInt)
    val df = TestUtil.ptsDF(spark, pts)
    val side = CellIndex.sideFor(eps, d)
    val got = assignCellsDF(df, (0 until d).map(j => s"x$j"), eps)
      .selectExpr("id" +: (0 until d).map(j => s"cell[$j] as c$j"): _*)
    val cols = (0 until d).map(j => s"CAST(FLOOR(x$j::DOUBLE / $side) AS INT) AS c$j").mkString(", ")
    Oracle.assertEquivalent(got, s"SELECT id::BIGINT AS id, $cols FROM pts", "pts" -> df)
  }

  for {
    d <- Seq(2, 3, 7)
    eps <- Seq(2.0, 8.0)
  } test(s"CellIndex invariants d=$d eps=$eps") {
    val pts = TestUtil.uniformPts(500, d, 40.0, seed = d * 7 + eps.toInt)
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 4), eps, d)
    val side = CellIndex.sideFor(eps, d)

    // Every point lands in exactly one cell; ids partition [0, n).
    val allIds = (0 until idx.numCells).flatMap(idx.pts).map(_.id).sorted
    assert(allIds.toSeq === (0L until 500L))
    assert(idx.n === 500)

    // Cell-ordered layout: cell c owns positions [start(c), start(c+1)), and
    // the positions hold every id once.
    assert(idx.start(0) === 0)
    assert((0 until idx.numCells).forall(c => idx.start(c) <= idx.start(c + 1)))
    assert(idx.start(idx.numCells) === idx.n)
    assert(idx.ids.sorted.toSeq === (0 until 500))

    // Cell extent per dimension is < side, so the diagonal is <= eps:
    // any two points of a cell are within eps of each other.
    for (c <- 0 until idx.numCells) {
      for (j <- 0 until d) assert(idx.tightHi(c)(j) - idx.tightLo(c)(j) <= side + 1e-12)
      for (p <- idx.pts(c); q <- Seq(idx.pts(c).head))
        assert(Dist.leq(p.x, q.x, eps))
    }

    // Cells group points exactly by grid key: one key per cell, and no key
    // in two cells.
    val keyOfCell = (0 until idx.numCells).map { c =>
      val keys = idx.pts(c).map(p => CellIndex.gridKey(p.x, side)).distinct
      assert(keys.length === 1, s"cell $c holds keys ${keys.toSeq}")
      keys(0)
    }
    assert(keyOfCell.distinct.length === idx.numCells)

    // Neighbor lists: symmetric, complete vs brute force, self-free.
    val e2 = eps * eps
    for (a <- 0 until idx.numCells; b <- 0 until idx.numCells if a != b) {
      val near = BBox.sqDistBetween(idx.cellLo, idx.cellHi, a * d, idx.cellLo, idx.cellHi, b * d, d) <= e2
      assert(idx.neighbors(a).contains(b) === near, s"cells $a,$b near=$near")
    }
    for (a <- 0 until idx.numCells; b <- idx.neighbors(a))
      assert(idx.neighbors(b).contains(a))
  }

  test("points on cell boundaries are assigned consistently") {
    val eps = math.sqrt(2.0) // side = 1.0 in 2D
    val pts = Array(
      Pt(0, Array(0.0, 0.0)), Pt(1, Array(1.0, 0.0)), Pt(2, Array(1.0 - 1e-12, 0.0)),
      Pt(3, Array(-1.0, -1.0)), Pt(4, Array(-0.5, 2.0)))
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 2), eps, 2)
    def key(i: Int): Seq[Int] = CellIndex.gridKey(pts(i).x, CellIndex.sideFor(eps, 2))
    assert(key(0) === Seq(0, 0))
    assert(key(1) === Seq(1, 0))
    assert(key(2) === Seq(0, 0))
    assert(key(3) === Seq(-1, -1))
    // Two points share a cell iff they share a key.
    val cellOf = TestUtil.cellOf(idx)
    for (i <- pts.indices; j <- pts.indices)
      assert((cellOf(i) == cellOf(j)) === (key(i) == key(j)), s"points $i and $j")
    assert(idx.numCells === 4)
  }

  test("empty and singleton inputs") {
    val one = CellIndex.grid(spark.sparkContext.parallelize(Seq(Pt(0, Array(1.0, 1.0)))), 1.0, 2)
    assert(one.numCells === 1)
    assert(one.neighbors(0).isEmpty)
  }

  for (parts <- Seq(1, 2, 3, 4, 7)) test(s"cells group the points exactly by grid key at $parts partitions") {
    val eps = 2.0; val side = CellIndex.sideFor(eps, 3)
    // The 5-point input leaves map tasks and reducers with nothing at 7.
    for (pts <- Seq(TestUtil.blobPts(400, 3, 4, 2.0, 30.0, 0.2, parts), TestUtil.uniformPts(5, 3, 10.0, parts))) {
      val input = spark.sparkContext.parallelize(pts.toSeq, parts)
      val idx = CellIndex.grid(input, eps, 3, par = parts)
      val byKey = pts.groupBy(p => CellIndex.gridKey(p.x, side)).values.map(_.map(_.id.toInt).toSet).toSet
      assert(TestUtil.cellSets(idx) === byKey)
      assert(idx.n === pts.length)
      TestUtil.assertLaidOut(idx, pts)
      TestUtil.assertSameIndex(CellIndex.grid(input, eps, 3, par = parts), idx)
    }
  }

  test("empty inputs give a 0-cell index and an empty clustering") {
    val sc = spark.sparkContext
    for (input <- Seq(sc.emptyRDD[Pt], sc.parallelize(Seq.empty[Pt], 4))) {
      for (idx <- Seq(CellIndex.grid(input, 1.0, 2), CellIndex.box2d(input, 1.0))) {
        assert(idx.numCells === 0)
        assert(idx.n === 0)
        assert(idx.nbrs.isEmpty)
      }
      for (cells <- Seq(GridCells, BoxCells)) {
        val res = DBSCAN.run(spark, input, 2, DBSCANConfig(1.0, 3, cellMethod = cells))
        assert(res.n === 0 && res.numClusters === 0 && res.isCore.isEmpty)
      }
    }
  }

  /** `body`'s result and the shuffle records each of its map tasks wrote. */
  private def shuffleRecords[T](body: => T): (T, Seq[Long]) = {
    val stages = mutable.Set[Int]()
    val written = mutable.ArrayBuffer[Long]() // listener-bus thread until drained
    val out = TestUtil.listening(spark.sparkContext)(group => new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (TestUtil.jobGroup(e.properties) == group) stages ++= e.stageIds
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages(e.stageId) && e.taskType == "ShuffleMapTask")
          written += e.taskMetrics.shuffleWriteMetrics.recordsWritten
    })(body)
    (out, written.toSeq)
  }

  test("the grouping's map tasks write at most one shuffle record per reducer") {
    val pts = TestUtil.uniformPts(2000, 2, 200.0, 33L)
    for (parts <- Seq(1, 4)) {
      val input = spark.sparkContext.parallelize(pts.toSeq, parts)
      for ((name, build) <- Seq[(String, () => CellIndex)](
          "grid" -> (() => CellIndex.grid(input, 3.0, 2, par = parts)),
          "box" -> (() => CellIndex.box2d(input, 3.0, par = parts)))) {
        val (idx, written) = shuffleRecords(build())
        // Each map task holds far more than `parts` cells: a record per cell would exceed the bound.
        assert(idx.numCells > 100 * parts, s"$name: ${idx.numCells} cells")
        assert(written.length === parts, s"$name: map tasks")
        assert(written.forall(_ <= parts), s"$name at $parts partitions: records ${written.mkString(", ")}")
      }
    }
  }
}
