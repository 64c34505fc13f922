package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import org.apache.spark.{NarrowDependency, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.{PartitionCoalescer, PartitionGroup, RDD}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.storage.StorageLevel

/** Full configuration of one DBSCAN run — the cross product of the paper's
  * implementation variants (§7.1). */
final case class DBSCANConfig(
    eps: Double,
    minPts: Int,
    cellMethod: CellMethod = GridCells,
    coreMethod: CoreMethod = ScanCore,
    graphMethod: GraphMethod = BcpGraph,
    bucketing: Boolean = false,
    parallelism: Int = 0, // 0 = Spark's default parallelism; the "thread count" knob
) {
  DBSCANConfig.requireParams(eps, minPts)

  /** Bucket count of the bucketing optimization; one value is in use. */
  def numBuckets: Int = DBSCANConfig.DefaultBuckets

  /** Paper-style name of this variant, e.g. "our-exact-qt-bucketing": the
    * first registered name whose config equals this one up to parallelism. */
  def name: String = {
    val rho = graphMethod match { case ApproxGraph(r) => r; case _ => 0.0 }
    val self = copy(parallelism = 0)
    DBSCANConfig.variants.collectFirst { case (n, f) if f(eps, minPts, rho) == self => n }
      .getOrElse(toString)
  }
}

object DBSCANConfig {
  /** Bucket count of the bucketing optimization (paper §4.4). */
  private[core] final val DefaultBuckets = 2

  /** The ε and minPts every algorithm accepts, the baselines included. */
  private[repro] def requireParams(eps: Double, minPts: Int): Unit = {
    require(eps > 0 && !eps.isInfinite, s"eps must be finite and > 0, got $eps")
    require(minPts >= 1, s"minPts must be >= 1, got $minPts")
  }

  /** our-exact: scan-based MarkCore + BCP cell graph. */
  def exact(eps: Double, minPts: Int): DBSCANConfig = DBSCANConfig(eps, minPts)
  /** our-exact-qt: quadtree MarkCore + quadtree RangeCount cell graph. */
  def exactQt(eps: Double, minPts: Int): DBSCANConfig =
    DBSCANConfig(eps, minPts, coreMethod = QtCore, graphMethod = QtGraph)
  /** our-approx: scan MarkCore + approximate quadtree cell graph. */
  def approx(eps: Double, minPts: Int, rho: Double = 0.01): DBSCANConfig =
    DBSCANConfig(eps, minPts, graphMethod = ApproxGraph(rho))
  /** our-approx-qt: quadtree MarkCore + approximate quadtree cell graph. */
  def approxQt(eps: Double, minPts: Int, rho: Double = 0.01): DBSCANConfig =
    DBSCANConfig(eps, minPts, coreMethod = QtCore, graphMethod = ApproxGraph(rho))

  /** Every named variant of the paper (§7.1 and §7.3), as a function of
    * (ε, minPts, ρ), in the order `name` searches them. */
  private[repro] val variants: Seq[(String, (Double, Int, Double) => DBSCANConfig)] = Seq(
    "our-exact"              -> ((e, m, _) => exact(e, m)),
    "our-exact-bucketing"    -> ((e, m, _) => exact(e, m).copy(bucketing = true)),
    "our-exact-qt"           -> ((e, m, _) => exactQt(e, m)),
    "our-exact-qt-bucketing" -> ((e, m, _) => exactQt(e, m).copy(bucketing = true)),
    "our-approx"             -> ((e, m, r) => approx(e, m, r)),
    "our-approx-qt"          -> ((e, m, r) => approxQt(e, m, r)),
    "our-approx-bucketing"   -> ((e, m, r) => approx(e, m, r).copy(bucketing = true)),
    "our-2d-grid-bcp"        -> ((e, m, _) => DBSCANConfig(e, m, GridCells, ScanCore, BcpGraph)),
    "our-2d-grid-usec"       -> ((e, m, _) => DBSCANConfig(e, m, GridCells, ScanCore, UsecGraph)),
    "our-2d-grid-delaunay"   -> ((e, m, _) => DBSCANConfig(e, m, GridCells, ScanCore, DelaunayGraph)),
    "our-2d-box-bcp"         -> ((e, m, _) => DBSCANConfig(e, m, BoxCells, ScanCore, BcpGraph)),
    "our-2d-box-usec"        -> ((e, m, _) => DBSCANConfig(e, m, BoxCells, ScanCore, UsecGraph)),
    "our-2d-box-delaunay"    -> ((e, m, _) => DBSCANConfig(e, m, BoxCells, ScanCore, DelaunayGraph)),
  )

  /** The config of the variant called `name`, or None for an unknown name. */
  def named(name: String, eps: Double, minPts: Int, rho: Double): Option[DBSCANConfig] =
    variants.collectFirst { case (`name`, f) => f(eps, minPts, rho) }
}

/** Phase timings (ms) and graph stats of one run. `gridMs` covers the
  * cells and the index's broadcast, not the neighbor search; `markCoreMs`
  * covers the cell quadtrees (QtCore) and MarkCore's job, which also finds
  * the neighbor lists (its k-d tree built and broadcast on the driver
  * included) and sets up the connectivity context, and the one broadcast
  * of its output (the flags, the context and the lists); `clusterCoreMs` covers the cell
  * graph and its components, and ClusterBorder's per-point test, which
  * runs in the cell graph's last job; `clusterBorderMs` covers only the
  * driver's mapping of the core cells each border point reaches to
  * clusters. */
final case class RunStats(
    gridMs: Long, markCoreMs: Long, clusterCoreMs: Long, clusterBorderMs: Long,
    graph: GraphStats) {
  def totalMs: Long = gridMs + markCoreMs + clusterCoreMs + clusterBorderMs
}

/** The clustering output, laid out as the paper's shared-memory arrays.
  *
  * Cluster ids are dense in [0, numClusters). Core points carry exactly one
  * cluster; border points carry a non-empty set; noise points carry none.
  */
final case class DBSCANResult(
    n: Int,
    isCore: Array[Boolean],
    coreCluster: Array[Int],            // cluster id for core points, else -1
    borderClusters: Array[Array[Int]],  // sorted cluster ids for border points
    numClusters: Int,
    stats: RunStats,
) {
  /** All cluster ids of point i (singleton for core, empty for noise). */
  def clustersOf(i: Int): Set[Int] =
    if (isCore(i)) Set(coreCluster(i)) else borderClusters(i).toSet
  def isNoise(i: Int): Boolean = !isCore(i) && borderClusters(i).isEmpty
  def numCore: Int = isCore.count(identity)
  def numNoise: Int = (0 until n).count(isNoise)
}

/** The resources of every Spark stage of a run: the call that submits its
  * job, how many tasks it runs and when its broadcasts die. The number of
  * tasks plays the role of the paper's thread count (speedup experiments
  * sweep it). */
object Par {
  /** Partitions for `work` items at target parallelism `par`: one task per
    * thread, never more than the work and at least one. It is the one
    * task-count policy: every stage `Par` sizes runs at most `par` tasks,
    * ClusterCore's rounds included. More tasks than threads would balance
    * skewed loads, as the paper's work stealing does, but at this scale
    * each extra task costs more than it balances. */
  def parts(work: Int, par: Int): Int = math.max(1, math.min(work, par))

  /** Target parallelism: `par`, or Spark's default when `par <= 0`. */
  private[repro] def threads(sc: SparkContext, par: Int): Int =
    if (par > 0) par else sc.defaultParallelism

  /** `rdd` merged without a shuffle down to `parts(partitions, par)`
    * partitions, or `rdd` itself when it has no more than that, so the
    * stages that read it run at most that many tasks. */
  private[core] def coalesce[T](rdd: RDD[T], par: Int): RDD[T] = {
    val n = parts(rdd.getNumPartitions, threads(rdd.sparkContext, par))
    if (rdd.getNumPartitions > n) rdd.coalesce(n, partitionCoalescer = Some(Ranges)) else rdd
  }

  /** Merges consecutive partitions: group g of k holds partitions
    * `[g·p/k, (g+1)·p/k)` of p, as Spark's own coalescer groups them when no
    * partition has a preferred location. Spark's coalescer groups cached
    * partitions by their blocks' locations instead, and cells are numbered
    * in the order of the merged partitions, so a run's cells would depend on
    * whether its input is cached. */
  private object Ranges extends PartitionCoalescer with Serializable {
    def coalesce(k: Int, parent: RDD[_]): Array[PartitionGroup] = Array.tabulate(k) { g =>
      val (p, group) = (parent.partitions, new PartitionGroup())
      group.partitions ++= p.slice((g.toLong * p.length / k).toInt, ((g + 1).toLong * p.length / k).toInt)
      group
    }
  }

  /** Runs `body`, which reads `rdd` more than once, with `rdd` persisted
    * for the call so that it is computed once — unless `rdd` is computed
    * from a persisted RDD already, and reading it again costs little. */
  private[repro] def persisting[R](rdd: RDD[_])(body: => R): R =
    if (persisted(rdd)) body
    else {
      rdd.persist()
      try body finally rdd.unpersist(blocking = false)
    }

  /** `rdd`, or an ancestor it reaches through narrow dependencies only, is
    * persisted. */
  private def persisted(rdd: RDD[_]): Boolean =
    rdd.getStorageLevel != StorageLevel.NONE ||
      rdd.dependencies.exists { case dep: NarrowDependency[_] => persisted(dep.rdd); case _ => false }

  /** Broadcasts values for the scope of one [[sharing]] call. */
  private[repro] final class Share private[Par] (sc: SparkContext) {
    private[Par] val made = ArrayBuffer[Broadcast[_]]()
    def apply[T: ClassTag](v: T): Broadcast[T] = { val b = sc.broadcast(v); made += b; b }
  }

  /** Runs `body` with a [[Share]]; every broadcast made through it is
    * destroyed when `body` returns or throws. */
  private[repro] def sharing[R](sc: SparkContext)(body: Share => R): R = {
    val share = new Share(sc)
    try body(share) finally share.made.foreach(_.destroy())
  }

  /** The one Spark job primitive: every job in `core/` and `baselines/`,
    * and the experiments' point collect, runs through it. It runs `f` on
    * each partition of `rdd` in one job and returns the results concatenated
    * in partition order; a 0-partition RDD gives an empty array.
    *
    * It calls the four-argument `SparkContext.runJob` itself because
    * `RDD.collect` and the shorter `runJob` overloads wrap the function in
    * lambdas of their own, and Spark's closure cleaner parses the class
    * that declares each lambda (`RDD`, `SparkContext`, each about 200 KB of
    * bytecode), about 5 ms apiece per job. Here it cleans one lambda,
    * declared in this small object, and still checks that it serializes. */
  private[repro] def collect[T, U: ClassTag](rdd: RDD[T])(f: Iterator[T] => Array[U]): Array[U] = {
    val out = new Array[Array[U]](rdd.getNumPartitions)
    rdd.sparkContext.runJob(rdd, (_: TaskContext, it: Iterator[T]) => f(it), out.indices,
      (i: Int, a: Array[U]) => out(i) = a)
    Array.concat(ArraySeq.unsafeWrapArray(out): _*)
  }

  /** The one parallel pass over cells (the paper's per-cell `parfor`s),
    * over two sequences at once: cuts `[0, n1)` and `[0, n2)` each into
    * the same [[parts]]`(max(n1, n2), `[[threads]]`(sc, par))` equal ranges
    * and runs `f(from1, until1, from2, until2)` once per pair of t-th
    * ranges, one task each, in one [[collect]] job. Returns one block per
    * task, in range order; no job runs when both are empty. */
  private[core] def slices2[T: ClassTag](sc: SparkContext, n1: Int, n2: Int, par: Int)(
      f: (Int, Int, Int, Int) => T): Array[T] =
    if (n1 == 0 && n2 == 0) Array.empty[T]
    else {
      val tasks = parts(math.max(n1, n2), threads(sc, par))
      def cut(n: Int, t: Int) = (n.toLong * t / tasks).toInt
      collect(sc.parallelize(0 until tasks, tasks))(_.map { t =>
        f(cut(n1, t), cut(n1, t + 1), cut(n2, t), cut(n2, t + 1))
      }.toArray)
    }

  /** [[slices2]] over one sequence: `f(from, until)` once per range of
    * `[0, n)`. */
  private[core] def slices[T: ClassTag](sc: SparkContext, n: Int, par: Int)(f: (Int, Int) => T): Array[T] =
    slices2(sc, n, 0, par)((from, until, _, _) => f(from, until))
}

/** Top-level parallel DBSCAN driver (paper Alg. 1). */
object DBSCAN {

  def run(spark: SparkSession, points: RDD[Pt], d: Int, cfg: DBSCANConfig): DBSCANResult = {
    val sc = spark.sparkContext
    val par = cfg.parallelism
    require(cfg.cellMethod == GridCells || d == 2, "box cells are 2D-only")
    cfg.graphMethod match {
      case UsecGraph     => require(d == 2, "USEC cell graph is 2D-only")
      case DelaunayGraph => require(d == 2, "Delaunay cell graph is 2D-only")
      case _             =>
    }
    Par.sharing(sc) { share =>
      var t0 = System.nanoTime()
      val idx = CellIndex.cells(points, cfg.eps, d, cfg.cellMethod, par)
      val bcIdx = share(idx)
      val gridMs = (System.nanoTime() - t0) / 1000000

      t0 = System.nanoTime()
      val bcQt = cfg.coreMethod match {
        case QtCore   => Some(share(MarkCore.buildCellQuadTrees(sc, bcIdx, par)))
        case ScanCore => None
      }
      // MarkCore's output, handed to ClusterCore as one broadcast (paper
      // Alg. 1: written to shared memory once).
      val marked @ (flags, _, lists) = MarkCore.withCtx(sc, bcIdx, cfg.minPts, bcQt, cfg.graphMethod, par)
      val bcMarked = share(marked)
      val markMs = (System.nanoTime() - t0) / 1000000

      t0 = System.nanoTime()
      val (cellCluster, gStats, hits) =
        ClusterCore.run(sc, bcIdx, bcMarked, cfg.graphMethod, cfg.bucketing, cfg.numBuckets,
          ClusterBorder.cells(idx, flags, lists), par)
      val coreMs = (System.nanoTime() - t0) / 1000000

      t0 = System.nanoTime()
      val n = idx.n.toInt
      val border = ClusterBorder.assign(n, hits, cellCluster)
      val borderMs = (System.nanoTime() - t0) / 1000000

      // Per-point cluster ids for core points: a core point's cell is a core cell.
      val coreCluster = Array.fill(n)(-1)
      val (start, ids) = (idx.start, idx.ids)
      var c = 0; var p = 0
      while (c < idx.numCells) { // cells are contiguous position ranges from 0
        while (p < start(c + 1)) { if (flags(ids(p))) coreCluster(ids(p)) = cellCluster(c); p += 1 }
        c += 1
      }
      DBSCANResult(n, flags, coreCluster, border, cellCluster.maxOption.fold(0)(_ + 1),
        RunStats(gridMs, markMs, coreMs, borderMs, gStats))
    }
  }

  /** DataFrame convenience wrapper: clusters rows of `df` on the given
    * numeric coordinate columns, returning (id, is_core, clusters
    * array<int>). The `id` column may hold any unique non-null values of any
    * type; the run numbers the rows densely and each output row carries its
    * input row's `id`, typed as in `df`. A null id throws, and so does a
    * null coordinate, naming its row's id. */
  def runDF(spark: SparkSession, df: DataFrame, cols: Seq[String], cfg: DBSCANConfig): DataFrame = {
    import scala.jdk.CollectionConverters._
    import org.apache.spark.sql.functions._
    import org.apache.spark.sql.types._
    val selected = df.select(col("id"), array(cols.map(col(_).cast(DoubleType)): _*)).rdd
    // Read three times: to number the rows, to collect the ids, and to cluster.
    val (ids, res) = Par.persisting(selected) {
      val rows = selected.zipWithIndex()
      // The caller's id of dense id i, and whether its row has a null coordinate.
      val ids = Par.collect(rows)(_.map { case (r, _) => (r.get(0), r.getSeq[Any](1).contains(null)) }.toArray)
      val seen = new java.util.HashSet[Any]()
      ids.foreach { case (id, nullCoord) =>
        require(id != null, "null id: runDF needs an id in every row")
        require(!nullCoord, s"point $id has a null coordinate in [${cols.mkString(", ")}]")
        require(seen.add(id), s"duplicate id $id: runDF needs a unique id column")
      }
      (ids, run(spark, rows.map { case (r, i) => Pt(i, r.getSeq[Double](1).toArray) }, cols.length, cfg))
    }
    val out = ids.indices.map(i => Row(ids(i)._1, res.isCore(i), res.clustersOf(i).toSeq.sorted))
    spark.createDataFrame(out.asJava, StructType(Seq(df.schema("id").copy(nullable = false)))
      .add("is_core", BooleanType, nullable = false).add("clusters", ArrayType(IntegerType, false), nullable = false))
  }
}
