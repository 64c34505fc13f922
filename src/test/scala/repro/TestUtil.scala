package repro

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.NaiveDBSCAN
import repro.core.{BBox, CellIndex, DBSCANResult, Dist, Pt}
import repro.geometry.UnionFind

import java.util.SplittableRandom

/** Shared helpers for the DBSCAN test battery. */
object TestUtil {

  /** Uniform random points in [0, extent]^d with dense ids. */
  def uniformPts(n: Int, d: Int, extent: Double, seed: Long): Array[Pt] = {
    val rnd = new SplittableRandom(seed)
    Array.tabulate(n)(i => Pt(i, Array.fill(d)(rnd.nextDouble() * extent)))
  }

  /** Gaussian blobs plus uniform noise — guarantees core, border and noise
    * points for sensible (eps, minPts). */
  def blobPts(n: Int, d: Int, numBlobs: Int, sigma: Double, extent: Double,
              noiseFrac: Double, seed: Long): Array[Pt] = {
    val rnd = new SplittableRandom(seed)
    val centers = Array.fill(numBlobs)(Array.fill(d)(rnd.nextDouble() * extent))
    Array.tabulate(n) { i =>
      if (rnd.nextDouble() < noiseFrac) Pt(i, Array.fill(d)(rnd.nextDouble() * extent))
      else {
        val c = centers(rnd.nextInt(numBlobs))
        Pt(i, Array.tabulate(d)(j => c(j) + rnd.nextGaussian() * sigma))
      }
    }
  }

  /** A generator's points on the driver, in id order. */
  def collect(rdd: RDD[Pt]): Array[Pt] = rdd.collect().sortBy(_.id)

  /** The job group of a job or stage, from its properties. */
  def jobGroup(props: java.util.Properties): String =
    Option(props).map(_.getProperty("spark.jobGroup.id")).getOrElse("")

  /** Runs `body` in a job group of its own with the listener `make(group)`
    * added, and returns once that listener has seen every event of body's
    * jobs. */
  def listening[T](sc: SparkContext)(make: String => SparkListener)(body: => T): T = {
    val group = s"listened-${System.nanoTime()}"
    @volatile var drained = false
    // Listeners see the events in order: once this one sees the drain job
    // start, the other has seen all of body's events.
    val listeners = Seq(make(group), new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (jobGroup(e.properties) == s"$group-drained") drained = true
    })
    listeners.foreach(sc.addSparkListener)
    try {
      sc.setJobGroup(group, "listened")
      val out = try body finally sc.clearJobGroup()
      sc.setJobGroup(s"$group-drained", "drain the listener bus")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 10000000000L
      while (!drained && System.nanoTime() < deadline) Thread.sleep(20)
      require(drained, "the listener bus did not drain in 10 s")
      out
    } finally listeners.foreach(sc.removeSparkListener)
  }

  /** `body`'s result and the number of Spark jobs it ran. */
  def jobsOf[T](sc: SparkContext)(body: => T): (T, Int) = {
    val jobs = new java.util.concurrent.atomic.AtomicInteger
    val out = listening(sc)(group => new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (jobGroup(e.properties) == group) jobs.incrementAndGet()
    })(body)
    (out, jobs.get)
  }

  /** The cell of each point id in an index. */
  def cellOf(idx: CellIndex): Array[Int] = {
    val out = new Array[Int](idx.n.toInt)
    for (c <- 0 until idx.numCells; p <- idx.start(c) until idx.start(c + 1)) out(idx.ids(p)) = c
    out
  }

  /** The cells of an index as sets of point ids. */
  def cellSets(idx: CellIndex): Set[Set[Int]] =
    (0 until idx.numCells).map(c => idx.ids.slice(idx.start(c), idx.start(c + 1)).toSet).toSet

  /** Each position of `idx` holds its point's coordinates, and each cell's
    * `cellLo`/`cellHi` is `BBox.of` over its points, bit for bit. */
  def assertLaidOut(idx: CellIndex, pts: Array[Pt]): Unit = {
    val d = idx.d
    def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq
    for (p <- 0 until idx.n.toInt)
      require(bits(idx.coords.slice(p * d, p * d + d)) == bits(pts(idx.ids(p)).x), s"coordinates at position $p")
    val positions = Array.range(0, idx.n.toInt)
    for (c <- 0 until idx.numCells) {
      val bb = BBox.of(idx.coords, d, positions, idx.start(c), idx.start(c + 1))
      require(bits(idx.tightLo(c)) == bits(bb.lo) && bits(idx.tightHi(c)) == bits(bb.hi),
        s"cell $c box [${idx.tightLo(c).mkString(", ")}]..[${idx.tightHi(c).mkString(", ")}]")
    }
  }

  /** Two indexes hold the same arrays, element for element. */
  def assertSameIndex(a: CellIndex, b: CellIndex): Unit = {
    def bits(x: Array[Double]) = x.map(java.lang.Double.doubleToRawLongBits).toSeq
    require(a.cellSizes.toSeq == b.cellSizes.toSeq, "cell sizes differ")
    require(a.ids.toSeq == b.ids.toSeq, "ids differ")
    require(bits(a.coords) == bits(b.coords), "coordinates differ")
    require(bits(a.cellLo) == bits(b.cellLo) && bits(a.cellHi) == bits(b.cellHi), "cell boxes differ")
    require(a.lists.counts.toSeq == b.lists.counts.toSeq && a.lists.nbrs.toSeq == b.lists.nbrs.toSeq,
      "neighbor lists differ")
  }

  /** Canonical label of a cluster: the smallest core-point id it contains. */
  def clusterReps(r: DBSCANResult): Map[Int, Long] = {
    val rep = scala.collection.mutable.HashMap[Int, Long]()
    var i = 0
    while (i < r.n) {
      if (r.isCore(i)) {
        val c = r.coreCluster(i)
        if (!rep.contains(c) || rep(c) > i) rep(c) = i
      }
      i += 1
    }
    rep.toMap
  }

  /** Point-id -> set of canonical cluster labels (core: singleton). */
  def membership(r: DBSCANResult): Map[Int, Set[Long]] = {
    val reps = clusterReps(r)
    (0 until r.n).flatMap { i =>
      val cs: Set[Long] =
        if (r.isCore(i)) Set(reps(r.coreCluster(i)))
        else r.borderClusters(i).map(reps).toSet
      if (cs.nonEmpty) Some(i -> cs) else None
    }.toMap
  }

  /** Assert two results are the same clustering up to label renaming. */
  def assertSameClustering(got: DBSCANResult, want: DBSCANResult): Unit = {
    require(got.n == want.n, s"n mismatch: ${got.n} vs ${want.n}")
    val gc = got.isCore.toSeq; val wc = want.isCore.toSeq
    require(gc == wc,
      s"core flags differ at ids ${gc.zip(wc).zipWithIndex.collect { case ((a, b), i) if a != b => i }.take(5)}")
    require(got.numClusters == want.numClusters,
      s"cluster count: ${got.numClusters} vs ${want.numClusters}")
    val gm = membership(got); val wm = membership(want)
    val diff = (gm.keySet ++ wm.keySet).filter(k => gm.get(k) != wm.get(k))
    require(diff.isEmpty,
      s"membership differs for ids ${diff.take(5)}: got=${diff.take(3).map(gm.get)} want=${diff.take(3).map(wm.get)}")
  }

  /** Assert that `got` is a valid ρ-approximate DBSCAN result (Gan & Tao):
    * core flags are exact; core points within ε share a cluster, and core
    * points in different components of the core ε(1+ρ)-graph do not; the
    * cluster ids are dense; and each non-core point's clusters are exactly
    * those of the core points within ε of it. */
  def assertApproxValid(pts: Array[Pt], got: DBSCANResult, eps: Double, minPts: Int,
                        rho: Double): Unit = {
    val want = NaiveDBSCAN.run(pts, eps, minPts)
    require(got.isCore.toSeq == want.isCore.toSeq, "core flags differ from the reference")
    val xs = pts.sortBy(_.id).map(_.x)
    val n = xs.length
    val core = (0 until n).filter(want.isCore)
    def components(radius: Double): Array[Int] = {
      val uf = new UnionFind(n)
      for (i <- core; j <- core if j < i && Dist.leq(xs(i), xs(j), radius)) uf.union(i, j)
      Array.tabulate(n)(uf.find)
    }
    val inner = components(eps)
    val outer = components(eps * (1 + rho))
    for (i <- core; j <- core if j < i) {
      val same = got.coreCluster(i) == got.coreCluster(j)
      require(same || inner(i) != inner(j), s"eps-connected core pair ($i,$j) split")
      require(!same || outer(i) == outer(j), s"core pair ($i,$j) outside eps(1+rho) merged")
    }
    require(core.map(got.coreCluster).toSet == (0 until got.numClusters).toSet,
      s"cluster ids of the core points are not [0, ${got.numClusters})")
    for (i <- 0 until n if !want.isCore(i)) {
      val within = core.filter(j => Dist.leq(xs(i), xs(j), eps)).map(got.coreCluster).toSet
      require(got.borderClusters(i).toSet == within,
        s"border set of point $i: ${got.borderClusters(i).toSeq} vs $within")
    }
  }

  /** Points as a (id, x0..x{d-1}) DataFrame for the DuckDB oracle. */
  def ptsDF(spark: SparkSession, pts: Array[Pt]): DataFrame = {
    import org.apache.spark.sql.types._
    val d = pts(0).d
    val schema = StructType(
      StructField("id", LongType, nullable = false) +:
        (0 until d).map(j => StructField(s"x$j", DoubleType, nullable = false)))
    val rows = pts.map(p => org.apache.spark.sql.Row.fromSeq(p.id +: p.x.toSeq)).toSeq
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  /** Catalyst-facing cell assignment: adds a `cell` array<int> column, to
    * cross-check the grid against DuckDB's floor arithmetic. */
  def assignCellsDF(df: DataFrame, cols: Seq[String], eps: Double): DataFrame = {
    import org.apache.spark.sql.functions._
    val side = CellIndex.sideFor(eps, cols.size)
    df.withColumn("cell", array(cols.map(c => floor(col(c) / lit(side)).cast("int")): _*))
  }

  /** SQL predicate: dist(alias a, alias b) <= eps, over VARCHAR-stored cols. */
  def sqlDistLeq(a: String, b: String, d: Int, eps: Double): String = {
    val sum = (0 until d)
      .map(j => s"($a.x$j::DOUBLE - $b.x$j::DOUBLE) * ($a.x$j::DOUBLE - $b.x$j::DOUBLE)")
      .mkString(" + ")
    s"($sum) <= ${eps * eps}"
  }

  /** Complete DBSCAN in DuckDB SQL over the `pts` table: returns the WITH
    * prelude defining dist2 / core / ce / lbl / comp. Clusters are labeled by
    * their minimum core point id (same canonical form as [[clusterReps]]). */
  def sqlDbscanPrelude(d: Int, eps: Double, minPts: Int): String =
    s"""WITH RECURSIVE dist2 AS (
       |  SELECT p.id::BIGINT AS a, q.id::BIGINT AS b
       |  FROM pts p JOIN pts q ON ${sqlDistLeq("p", "q", d, eps)}
       |),
       |core AS (SELECT a AS id FROM dist2 GROUP BY a HAVING COUNT(*) >= $minPts),
       |ce AS (
       |  SELECT d.a, d.b FROM dist2 d
       |  WHERE d.a IN (SELECT id FROM core) AND d.b IN (SELECT id FROM core)
       |),
       |lbl(id, l) AS (
       |  SELECT id, id FROM core
       |  UNION
       |  SELECT ce.b, lbl.l FROM lbl JOIN ce ON ce.a = lbl.id
       |),
       |comp AS (SELECT id, MIN(l) AS rep FROM lbl GROUP BY id)
       |""".stripMargin

  /** (id, rep) membership rows of a result: one row per core point and one
    * per border membership, labels canonicalized to min core id. */
  def membershipDF(spark: SparkSession, r: DBSCANResult): DataFrame = {
    val rows = membership(r).toSeq.flatMap { case (i, cs) => cs.map(c => (i.toLong, c)) }
    spark.createDataFrame(rows).toDF("id", "rep")
  }
}
