package repro.core

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil.assignCellsDF

/** Grid cell construction (paper §4.1) — DataFrame assignment vs DuckDB, the
  * CellIndex invariants every later stage relies on, the key table that
  * groups cells, and the neighbor search. */
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

    // Cell extent per dimension is <= side, so the diagonal is <= eps:
    // any two points of a cell are within eps of each other.
    for (c <- 0 until idx.numCells) {
      for (j <- 0 until d) assert(idx.tightHi(c)(j) - idx.tightLo(c)(j) <= side)
      assert(Dist.leq(idx.tightLo(c), idx.tightHi(c), eps), s"cell $c diagonal")
      for (p <- idx.pts(c); q <- idx.pts(c))
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
    // The 5-point input leaves some map tasks with nothing at 7.
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
        assert(idx.lists.nbrs.isEmpty)
      }
      for (cells <- Seq(GridCells, BoxCells)) {
        val res = DBSCAN.run(spark, input, 2, DBSCANConfig(1.0, 3, cellMethod = cells))
        assert(res.n === 0 && res.numClusters === 0 && res.isCore.isEmpty)
      }
    }
  }

  /** `body`'s result and, per job it ran, its stages' task counts; and the
    * shuffle bytes its tasks wrote. */
  private def stagesOf[T](body: => T): (T, Seq[Seq[Int]], Long) = {
    val jobs = mutable.ArrayBuffer[Seq[Int]]() // listener-bus thread until drained
    val tasks = mutable.Map[Int, Int]().withDefaultValue(0)
    var written = 0L
    val out = TestUtil.listening(spark.sparkContext)(group => new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (TestUtil.jobGroup(e.properties) == group) jobs += e.stageIds
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (jobs.exists(_.contains(e.stageId))) {
          tasks(e.stageId) += 1
          written += e.taskMetrics.shuffleWriteMetrics.bytesWritten
        }
    })(body)
    (out, jobs.map(_.map(tasks)).toSeq, written)
  }

  test("the cells are grouped in one stage of Par.parts tasks that writes no shuffle") {
    val pts = TestUtil.uniformPts(2000, 2, 200.0, 33L)
    for (parts <- Seq(1, 4)) {
      val input = spark.sparkContext.parallelize(pts.toSeq, 2 * parts)
      // Box cells collect the coordinates for their boundaries in a job before the grouping.
      for ((cells, jobs) <- Seq(GridCells -> 1, BoxCells -> 2)) {
        val (idx, stages, written) = stagesOf(CellIndex.cells(input, 3.0, 2, cells, parts))
        assert(idx.numCells > 100 * parts, s"$cells: ${idx.numCells} cells")
        // Each job is one stage, of one task per coalesced partition.
        assert(stages === Seq.fill(jobs)(Seq(Par.parts(2 * parts, parts))), s"$cells at $parts partitions")
        assert(written === 0L, s"$cells at $parts partitions: shuffle bytes")
      }
    }
  }

  /** Every cell's neighbor list is exactly the sorted cells whose boxes lie
    * within ε of its box, by a scan over all pairs. */
  private def assertNeighborsExact(idx: CellIndex): Unit = {
    val (d, e2) = (idx.d, idx.eps * idx.eps)
    for (a <- 0 until idx.numCells) {
      val want = (0 until idx.numCells).filter(b =>
        b != a && BBox.sqDistBetween(idx.cellLo, idx.cellHi, a * d, idx.cellLo, idx.cellHi, b * d, d) <= e2)
      assert(idx.neighbors(a).toSeq === want, s"cell $a")
    }
  }

  /** The cells of `pts` by grid key at `parts` partitions, checked against a
    * grouping of the points by `gridKey`, with their layout and neighbors. */
  private def assertGroupedByKey(pts: Array[Pt], eps: Double, d: Int, parts: Int): CellIndex = {
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, parts), eps, d, par = parts)
    val side = CellIndex.sideFor(eps, d)
    assert(TestUtil.cellSets(idx) === pts.groupBy(p => CellIndex.gridKey(p.x, side)).values.map(_.map(_.id.toInt).toSet).toSet)
    TestUtil.assertLaidOut(idx, pts)
    assertNeighborsExact(idx)
    idx
  }

  for (d <- Seq(1, 2, 3); parts <- Seq(1, 3)) test(s"keys at the Int limits stay apart in every dimension d=$d at $parts partitions") {
    // Side 1: a coordinate k + 0.5 has key k, so these are the keys −2^31, −1,
    // 0 and 2^31 − 1 in every combination, each held by two points. At d = 3,
    // 3·1·1 exceeds √3·√3 in floats, so the side of ε = √3 is below 1.
    val eps = Iterator.iterate(math.sqrt(d.toDouble))(math.nextUp).find(CellIndex.sideFor(_, d) >= 1.0).get
    assert(CellIndex.sideFor(eps, d) === 1.0)
    val ks = Seq(Int.MinValue, -1, 0, Int.MaxValue)
    val keys = (0 until d).foldLeft(Seq(Seq.empty[Int]))((acc, _) => for (k <- acc; j <- ks) yield k :+ j)
    val pts = (keys ++ keys).zipWithIndex.map { case (k, i) => Pt(i, k.map(_ + 0.5).toArray) }.toArray
    assert(pts.map(p => CellIndex.gridKey(p.x, 1.0)).distinct.map(_.toSeq).toSet === keys.toSet)
    assert(assertGroupedByKey(pts, eps, d, parts).numCells === keys.length)
  }

  for (d <- Seq(2, 3); parts <- Seq(1, 4)) test(s"keys that differ only in their last dimension are distinct cells d=$d at $parts partitions") {
    // 300 cells in one row along the last axis, two points each, and their
    // mirror images through the origin: keys (7, .., 7, k) and (−8, .., −8, −k − 1).
    val eps = math.sqrt(d.toDouble)
    val row = (0 until 600).map(i => Array.tabulate(d)(j => if (j == d - 1) i / 2 + 0.25 * (1 + i % 2) else 7.5))
    val pts = (row ++ row.map(_.map(-_))).zipWithIndex.map { case (x, i) => Pt(i, x) }.toArray
    assert(assertGroupedByKey(pts, eps, d, parts).numCells === 600)
  }

  /** Two keys of `candidates` that start probing at the same slot of a key
    * table sized for `count` keys. */
  private def sharedSlot(candidates: Seq[Array[Int]], count: Int): (Array[Int], Array[Int]) = {
    val cap = KeyTable.capacity(count)
    val bySlot = candidates.groupBy(k => KeyTable.slot(KeyTable.hash(k, 0, k.length), cap))
    val (a, b) = bySlot.values.find(_.length >= 2).map(ks => (ks(0), ks(1))).get
    assert(!a.sameElements(b))
    (a, b)
  }

  test("keys sharing a table slot stay two cells in a map task and the driver's merge") {
    // Three points, one partition: the map task's table and the merge's table
    // are both sized for at most three keys, so the two keys collide in each.
    val (a, b) = sharedSlot((1 to 64).map(i => Array(i, 0)), 3)
    assert(KeyTable.capacity(2) === KeyTable.capacity(3))
    val t = new KeyTable(Array.concat(a, b, a), 2, 3)
    assert(t.size === 2 && t.cellOf.toSeq === Seq(0, 1, 0) && t.first(1) === 1)
    val pts = Array(a, b, a).zipWithIndex.map { case (k, i) => Pt(i, k.map(_ + 0.5)) }
    val idx = assertGroupedByKey(pts, math.sqrt(2.0), 2, parts = 1)
    assert(TestUtil.cellSets(idx) === Set(Set(0, 2), Set(1)))
  }

  test("box cells group through the same key table, keys differing in their last dimension and sharing slots") {
    // One x-strip of 40 y-boxes, 2ε/√2 apart: the box keys (0, 0) .. (0, 39)
    // differ only in their last dimension, and two of them share a slot in
    // the tables of the one map task and of the driver's merge.
    val eps = math.sqrt(2.0)
    val pts = (0 until 80).map(i => Pt(i, Array(0.1 * (i % 2), 2.0 * (i / 2)))).toArray
    sharedSlot((0 until 40).map(j => Array(0, j)), 80)
    sharedSlot((0 until 40).map(j => Array(0, j)), 40)
    for (parts <- Seq(1, 3)) {
      val idx = CellIndex.box2d(spark.sparkContext.parallelize(pts.toSeq, parts), eps, par = parts)
      assert(TestUtil.cellSets(idx) === (0 until 40).map(j => Set(2 * j, 2 * j + 1)).toSet, s"$parts partitions")
      TestUtil.assertLaidOut(idx, pts)
      assertNeighborsExact(idx)
    }
  }

  test("no code under src/main/scala/repro/core keys a mutable.HashMap by ArraySeq") {
    // Cells group by a primitive key table; a boxed key per point is what it replaced.
    val core = Paths.get("src", "main", "scala", "repro", "core")
    assert(Files.isDirectory(core), s"no $core under ${sys.props("user.dir")}")
    val boxed = """HashMap\[\s*(immutable\.)?ArraySeq\b""".r
    val hits = Files.walk(core).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq.flatMap { f =>
      Files.readAllLines(f).asScala.zipWithIndex.collect {
        case (l, i) if !Seq("*", "//", "/*").exists(l.trim.startsWith) && boxed.findFirstIn(l.split("//")(0)).isDefined =>
          s"$f:${i + 1}"
      }
    }
    assert(hits.isEmpty, s": HashMap keyed by ArraySeq at ${hits.mkString(", ")}")
  }

  test("boxes exactly eps apart are neighbors, and one ulp further apart are not") {
    val sc = spark.sparkContext
    // Axis gap 0.5 at ε = 0.5, and a diagonal gap (3, 4) at ε = 5; then the
    // far box moved up by one ulp along the last axis.
    for ((eps, lo0, hi0, far) <- Seq(
        (0.5, Array(0.0, 0.0), Array(1.0, 1.0), Array(0.0, 1.5)),
        (5.0, Array(0.0, 0.0), Array(1.0, 1.0), Array(4.0, 5.0)))) {
      for (ulps <- 0 to 1) {
        val lo1 = far.clone(); if (ulps == 1) lo1(1) = Math.nextUp(lo1(1))
        val hi1 = lo1.map(_ + 2.0)
        val nb = CellIndex.neighborLists(sc, lo0 ++ lo1, hi0 ++ hi1, 2, eps, par = 2)
        if (ulps == 0) assert(nb.counts.toSeq === Seq(1, 1) && nb.nbrs.toSeq === Seq(1, 0), s"eps=$eps")
        else assert(nb.counts.toSeq === Seq(0, 0) && nb.nbrs.isEmpty, s"eps=$eps, one ulp beyond")
      }
    }
  }

  test("one-point boxes find their neighbors as points within eps") {
    // Integer points, so many pairs lie exactly ε = 2 apart.
    val rnd = new java.util.SplittableRandom(3L)
    for (d <- 1 to 4) {
      val xs = Array.fill(300 * d)(rnd.nextInt(12).toDouble)
      val nb = CellIndex.neighborLists(spark.sparkContext, xs, xs, d, 2.0, par = 3)
      for (a <- 0 until 300) {
        val want = (0 until 300).filter(b => b != a && Dist.leq(xs, a * d, xs, b * d, d, 2.0))
        assert(nb(a).toSeq === want, s"d=$d point $a")
      }
    }
  }

  for (parts <- 1 to 4) test(s"neighbor lists of skewed grid and box cells equal the pair scan at $parts partitions") {
    val pts = TestUtil.blobPts(1500, 2, numBlobs = 2, sigma = 1.5, extent = 40.0, noiseFrac = 0.2, seed = 40L + parts)
    val input = spark.sparkContext.parallelize(pts.toSeq, parts)
    for (idx <- Seq(CellIndex.grid(input, 1.0, 2, par = parts), CellIndex.box2d(input, 1.0, par = parts))) {
      assert(idx.numCells > 200)
      assertNeighborsExact(idx)
    }
    val pts3 = TestUtil.blobPts(1500, 3, numBlobs = 2, sigma = 1.5, extent = 40.0, noiseFrac = 0.2, seed = 50L + parts)
    assertNeighborsExact(CellIndex.grid(spark.sparkContext.parallelize(pts3.toSeq, parts), 1.5, 3, par = parts))
  }
}
