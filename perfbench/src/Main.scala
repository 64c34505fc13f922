package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._

/** Metric names, units and directions: the single source for the result
  * line and for BENCHMARK.json (`--manifest`). */
object Metrics {
  final case class Def(name: String, unit: String, better: String, bound: Double = 0.0)

  val endToEnd: Seq[Def] = Seq(
    Def("run_s", "s", "lower", 0.25),
    Def("pts_per_s", "points/s", "higher", 0.25),
    Def("serial_s", "s", "lower", 0.25),
    Def("speedup", "x", "higher", 0.2),
    Def("setup_s", "s", "lower", 0.25),
    Def("live_heap_peak_mb", "MiB", "lower", 0.1),
    Def("ok_frac", "ratio", "higher", 0.01),
  )

  private val phaseFields: Seq[(String, String, String)] = Seq(
    ("wall_s", "s", "lower"), ("self_s", "s", "lower"), ("jobs", "count", "lower"),
    ("tasks", "count", "lower"), ("task_s", "s", "lower"), ("task_skew", "ratio", "lower"),
    ("busy_frac", "ratio", "higher"), ("shuffle_mb", "MiB", "lower"),
    ("result_mb", "MiB", "lower"), ("broadcast_mb", "MiB", "lower"), ("gc_s", "s", "lower"))

  val counters: Seq[Def] = Seq(
    Def("cells.count", "count", "lower"), Def("cells.size_max", "count", "lower"),
    Def("cells.singletons", "count", "lower"), Def("cells.neighbor_pairs", "count", "lower"),
    Def("markcore.allcore_cells", "count", "higher"), Def("markcore.core_pts", "count", "lower"),
    Def("clustercore.candidate_pairs", "count", "lower"), Def("clustercore.queries", "count", "lower"),
    Def("clustercore.prune_frac", "ratio", "higher"), Def("clustercore.edges", "count", "lower"),
    Def("clusterborder.border_pts", "count", "lower"), Def("clusterborder.noise_pts", "count", "lower"),
    Def("result.clusters", "count", "lower"))

  /** Phase times `DBSCAN.run` itself reports in RunStats, beside the trace. */
  val runStats: Seq[Def] = Seq("grid_s", "markcore_s", "clustercore_s", "clusterborder_s")
    .map(n => Def(s"runstats.$n", "s", "lower"))

  val perLayer: Seq[Def] =
    Replay.Phases.flatMap(p => phaseFields.map { case (f, u, b) => Def(s"$p.$f", u, b) }) ++
      counters ++
      Kernels.Names.flatMap(k => Seq(Def(s"kernel.$k.ns", "ns", "lower"),
        Def(s"kernel.$k.ops", "count", "higher"), Def(s"kernel.$k.bytes_per_op", "B/op-computed", "lower"))) ++
      Seq(Def("kernel.bcp.hit_frac", "ratio", "higher")) ++
      runStats ++
      Seq(Def("trace.overhead_s", "s", "lower"))
}

/** Command-line options; `workDir` holds build outputs, reference cache and
  * traces, `stamp` identifies the build. */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      workDir: Path, stamp: String)

/** Benchmark driver: one workload, one seed, one JVM.
  *
  * A closed loop with a single caller: `DBSCAN.run` calls back to back on a
  * `local[nproc]` session, each checked against the sequential reference
  * outside the timed region. `--trace 0` reports the end-to-end metrics;
  * `--trace 1` replays the run's phases under spans and reports per-layer
  * metrics. The last stdout line starts with `RESULT ` and holds the JSON
  * result. */
object Main {

  def main(args: Array[String]): Unit = {
    if (args.contains("--manifest")) { println(manifest()); return }
    val kv = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val o = Opts(kv("workload"), kv("seed").toLong, kv("seconds").toDouble, kv("trace") == "1",
      Paths.get(kv("work-dir")), kv("stamp"))
    val w = Workloads.byName(o.workload)
    val b = new Bench(w, o)
    val (metrics, attempted, failed) = if (o.trace) b.traced() else b.endToEnd()
    val wanted = (if (o.trace) Metrics.perLayer else Metrics.endToEnd).map(_.name)
    require(metrics.keySet == wanted.toSet,
      s"metric set mismatch: missing ${wanted.filterNot(metrics.contains)}, extra ${metrics.keySet -- wanted}")
    val units = (Metrics.endToEnd ++ Metrics.perLayer).map(d => d.name -> d.unit).toMap
    wanted.foreach(k => println(f"$k%-34s ${Json.num(metrics(k))} ${units(k)}"))
    val json = Json.obj(Seq(
      "correct" -> (if (failed == 0) "true" else "false"),
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(wanted.map(k =>
        k -> Json.obj(Seq("value" -> Json.num(metrics(k)), "unit" -> Json.str(units(k)))))),
    ))
    println("RESULT " + json)
  }

  def manifest(): String = {
    def defs(ds: Seq[Metrics.Def], withBound: Boolean) = "[\n" + ds.map { d =>
      val fields = Seq("name" -> Json.str(d.name), "unit" -> Json.str(d.unit),
        "better" -> Json.str(d.better)) ++ (if (withBound) Seq("bound" -> Json.num(d.bound)) else Nil)
      "    " + Json.obj(fields)
    }.mkString(",\n") + "\n  ]"
    Seq(
      "{",
      """  "command": ["python3", "perfbench/run.py"],""",
      """  "paths": ["perfbench"],""",
      s"""  "run_seconds": ${RunSeconds},""",
      "  \"workloads\": [\n" + Workloads.all.map(w =>
        "    " + Json.obj(Seq("name" -> Json.str(w.name), "why" -> Json.str(w.why)))).mkString(",\n") + "\n  ],",
      s"""  "end_to_end": ${defs(Metrics.endToEnd, withBound = true)},""",
      s"""  "per_layer": ${defs(Metrics.perLayer, withBound = false)}""",
      "}").mkString("\n")
  }

  /** Seconds one run measures (BENCHMARK.json `run_seconds`). */
  val RunSeconds = 26
}

/** Minimal JSON writer for the flat objects the benchmark prints. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
  def obj(kvs: Seq[(String, String)]): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** One benchmark process for workload `w`. */
final class Bench(w: Workload, o: Opts) {
  private val cores = Runtime.getRuntime.availableProcessors()
  private val attempted = new AtomicInteger(0)
  private val failed = new AtomicInteger(0)
  /** Counters every run on one session must repeat exactly: graph stats,
    * clusters, cores. Cell numbering follows the shuffle's partition count,
    * so ClusterCore's query and edge counts differ between local[1] and
    * local[nproc]; each session keeps its own. */
  private val fingerprints = mutable.HashMap[Int, (GraphStats, Int, Int)]()

  /** The control job of each session. */
  private val controls = mutable.HashMap[SparkSession, Control]()
  private def control(spark: SparkSession): Control = controls.getOrElseUpdate(spark, new Control(spark))

  private def log(s: String): Unit = { Console.out.println(s); Console.out.flush() }

  private val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
  /** Logs how far into the process a step finished. */
  private def step(what: String): Unit =
    log(f"[${(System.currentTimeMillis() - jvmStart) / 1e3}%7.2f s] $what")

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** SparkSession start plus data generation and materialisation. */
  private def setup(k: Int): (SparkSession, RDD[Pt], Double) = {
    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[$k]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", o.workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    val rdd = w.gen(spark, w.n, o.seed).persist(StorageLevel.MEMORY_ONLY)
    val count = rdd.count()
    require(count == w.n, s"generator made $count points, expected ${w.n}")
    (spark, rdd, secondsSince(t0))
  }

  /** Starts the reference on its own thread; it overlaps the warm-up runs
    * and is joined before any timed region. */
  private def startReference(pts: Array[Pt]): Future[DBSCANResult] = {
    val pool = java.util.concurrent.Executors.newSingleThreadExecutor()
    val key = s"${w.name}-seed${o.seed}-${o.stamp}"
    try Future(Reference.loadOrCompute(o.workDir.resolve("ref"), key, w, pts))(
      ExecutionContext.fromExecutor(pool))
    finally pool.shutdown() // the submitted task still runs
  }

  /** Checks one result: against the reference and against the counters of
    * the first checked run. Returns the failure, if any. */
  private def verify(res: DBSCANResult, ref: DBSCANResult, spark: SparkSession): Option[String] = {
    val fp = (res.stats.graph, res.numClusters, res.numCore)
    Check(res, ref).orElse {
      val first = fingerprints.getOrElseUpdate(spark.sparkContext.defaultParallelism, fp)
      if (first != fp) Some(s"counters $fp differ from the first run's $first") else None
    }
  }

  /** The median wall time of `runs` (wall time, control-job time) on
    * `local[nproc]`, scaled to a fixed host speed: each run's time times
    * the control job's nominal time over its time just before the run. The
    * host's speed changes within seconds; this pairing follows it. */
  private def scaledMedian(runs: Seq[(Double, Double)]): Double = {
    def samples(xs: Iterable[Double]) = xs.map(x => f"$x%.3f").mkString(" ")
    log(f"control job local[$cores]: median ${Stats.median(runs.map(_._2))}%.4f s, samples " +
      samples(runs.map(_._2)))
    val scaled = runs.map { case (t, c) => t * Control.Nominal / c }
    val (q1, med, q3) = Stats.quartiles(scaled)
    log(f"scaled local[$cores]: median $med%.4f s, quartiles [$q1%.4f, $q3%.4f], samples ${samples(scaled)}")
    med
  }

  /** Timed `DBSCAN.run` calls for at least `seconds` and `minReps` runs;
    * returns (wall seconds, control-job seconds) of the runs that passed
    * the check. With `withControl` the control job runs just before each
    * call; without, its time reads 0. A full GC before each job keeps one
    * job's garbage out of the next one's time. */
  private def timedRuns(spark: SparkSession, rdd: RDD[Pt], ref: DBSCANResult, seconds: Double,
                        minReps: Int, label: String, withControl: Boolean): Seq[(Double, Double)] = {
    val ok = mutable.ArrayBuffer[(Double, Double)]()
    val start = System.nanoTime()
    var reps = 0
    while (reps < minReps || secondsSince(start) < seconds) {
      reps += 1
      attempted.incrementAndGet()
      System.gc()
      val ctl = if (withControl) control(spark).time() else 0.0
      System.gc()
      val t0 = System.nanoTime()
      val res = try Right(DBSCAN.run(spark, rdd, w.d, w.cfg)) catch { case e: Exception => Left(e.toString) }
      val dt = secondsSince(t0)
      res.flatMap(r => verify(r, ref, spark).toLeft(r)) match {
        case Right(_) => ok += ((dt, ctl))
        case Left(why) =>
          failed.incrementAndGet()
          log(s"$label run $reps FAILED: $why")
      }
    }
    ok.toSeq
  }

  /** Untimed runs until the JIT has had `WarmUpSeconds` and the reference
    * is ready, at least `MinWarmUps` runs. */
  private def warmUp(spark: SparkSession, rdd: RDD[Pt], ref: Future[DBSCANResult]): DBSCANResult = {
    val start = System.nanoTime()
    var reps = 0
    while (reps < MinWarmUps || secondsSince(start) < WarmUpSeconds || !ref.isCompleted) {
      DBSCAN.run(spark, rdd, w.d, w.cfg)
      control(spark).time()
      reps += 1
    }
    Await.result(ref, Duration.Inf)
  }

  /** Peak heap still live after a full GC, sampled at the end of every
    * Spark job of an untimed run and once after it returns; the median over
    * `HeapProbes` runs. Forcing GCs would distort timed runs, so these runs
    * are separate from them; they come after the warm-up, once the
    * reference (which holds its own memory) is done. */
  private def liveHeapPeakMb(spark: SparkSession, rdd: RDD[Pt], ref: DBSCANResult): Double =
    Stats.median((1 to HeapProbes).map(_ => heapProbe(spark, rdd, ref)))

  private def heapProbe(spark: SparkSession, rdd: RDD[Pt], ref: DBSCANResult): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    val peak = new AtomicLong(0)
    val started = new AtomicInteger(0)
    val ended = new AtomicInteger(0)
    def sample(): Unit = { System.gc(); peak.accumulateAndGet(mem.getHeapMemoryUsage.getUsed, math.max) }
    val l = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
      override def onJobEnd(e: SparkListenerJobEnd): Unit = { sample(); ended.incrementAndGet() }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(l)
    val res = DBSCAN.run(spark, rdd, w.d, w.cfg)
    val deadline = System.currentTimeMillis() + 30000
    while (ended.get < started.get && System.currentTimeMillis() < deadline) Thread.sleep(5)
    sample()
    sc.removeSparkListener(l)
    attempted.incrementAndGet()
    verify(res, ref, spark).foreach { why => failed.incrementAndGet(); log(s"heap-probe run FAILED: $why") }
    peak.get / (1024.0 * 1024.0)
  }

  private def envRecord(spark: SparkSession): Seq[(String, String)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    val xmx = rt.getInputArguments.asScala.filter(_.startsWith("-Xmx")).lastOption.getOrElse("default")
    Seq(
      "workload" -> Json.str(w.name), "seed" -> o.seed.toString, "n" -> w.n.toString,
      "d" -> w.d.toString, "variant" -> Json.str(w.cfg.name), "eps" -> Json.num(w.cfg.eps),
      "minPts" -> w.cfg.minPts.toString,
      "working_set_mib" -> Json.num(w.n * w.d * 8 / (1024.0 * 1024.0)),
      "nproc" -> cores.toString, "l3" -> Json.str(Env.l3Size),
      "xmx" -> Json.str(xmx), "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "spark" -> Json.str(spark.version), "scala" -> Json.str(scala.util.Properties.versionNumberString))
  }

  /** `--trace 0`: the end-to-end metrics. */
  def endToEnd(): (Map[String, Double], Int, Int) = {
    val setups = mutable.ArrayBuffer[Double]()
    val (spark0, rdd0, s0) = setup(cores)
    setups += s0
    log("env " + Json.obj(envRecord(spark0)))
    val refF = startReference(rdd0.collect().sortBy(_.id))
    step(f"set up local[$cores] in $s0%.3f s")
    val ref = warmUp(spark0, rdd0, refF)
    step("warm-up runs done, reference ready")
    val heap = liveHeapPeakMb(spark0, rdd0, ref)
    step("heap probes done")

    // local[nproc] and local[1] blocks alternate, so both medians see the
    // same JIT state and host speed. Each local[nproc] start is also a
    // set-up sample.
    val par, serial = mutable.ArrayBuffer[(Double, Double)]()
    var session = (spark0, rdd0)
    (1 to Blocks).foreach { b =>
      if (b > 1) {
        val (s, r, t) = setup(cores)
        setups += t
        session = (s, r)
      }
      par ++= timedRuns(session._1, session._2, ref, o.seconds * ParShare / Blocks,
        MinParReps, s"local[$cores]", withControl = true)
      session._1.stop()
      controls.remove(session._1)
      val (s1, r1, _) = setup(1)
      if (b == 1) DBSCAN.run(s1, r1, w.d, w.cfg) // JIT for the one-partition paths
      serial ++= timedRuns(s1, r1, ref, o.seconds * (1 - ParShare) / Blocks, MinSerialReps, "local[1]",
        withControl = false)
      s1.stop()
      step(s"block $b done")
    }

    // Short set-ups spread; more samples steady their median.
    (1 to ExtraSetups).foreach { _ =>
      val (s, _, t) = setup(cores)
      setups += t
      s.stop()
    }
    step("set-up samples done")

    require(par.nonEmpty && serial.nonEmpty, "every timed run failed")
    def samples(xs: Iterable[Double]) = xs.map(x => f"$x%.3f").mkString(" ")
    log(f"set-up local[$cores]: median ${Stats.median(setups)}%.4f s, samples ${samples(setups)}")
    val (q1, rawRunS, q3) = Stats.quartiles(par.map(_._1))
    log(f"wall time local[$cores]: median $rawRunS%.4f s, quartiles [$q1%.4f, $q3%.4f], " +
      f"samples ${par.size}: ${samples(par.map(_._1))}")
    val rawSerialS = Stats.median(serial.map(_._1))
    log(f"wall time local[1]: median $rawSerialS%.4f s, samples ${serial.size}: ${samples(serial.map(_._1))}")
    val runS = scaledMedian(par.toSeq)
    // local[1] and local[nproc] blocks alternate within seconds, so the
    // host's speed cancels out of the ratio of their raw medians; serial_s
    // is run_s times that ratio.
    val speedup = rawSerialS / rawRunS
    val metrics = Map(
      "run_s" -> runS,
      "pts_per_s" -> w.n / runS,
      "serial_s" -> runS * speedup,
      "speedup" -> speedup,
      "setup_s" -> Stats.median(setups),
      "live_heap_peak_mb" -> heap,
      "ok_frac" -> (attempted.get - failed.get).toDouble / attempted.get,
    )
    (metrics, attempted.get, failed.get)
  }

  /** `--trace 1`: per-layer metrics from traced replays, the untraced runs
    * they are compared with, and the kernel microbenches. */
  def traced(): (Map[String, Double], Int, Int) = {
    val (spark, rdd, _) = setup(cores)
    val sc = spark.sparkContext
    val env = envRecord(spark)
    log("env " + Json.obj(env))
    val refF = startReference(rdd.collect().sortBy(_.id))
    val ref = warmUp(spark, rdd, refF)
    // Untraced and traced runs alternate, so both see the same JIT state.
    val listener = new JobListener
    val plain = mutable.ArrayBuffer[(Double, RunStats)]()
    val replays = (1 to TracedReps).map { rep =>
      attempted.incrementAndGet()
      System.gc()
      val t0 = System.nanoTime()
      val direct = DBSCAN.run(spark, rdd, w.d, w.cfg)
      plain += ((secondsSince(t0), direct.stats))
      verify(direct, ref, spark).foreach { why =>
        failed.incrementAndGet(); log(s"untraced run $rep FAILED: $why")
      }
      sc.addSparkListener(listener)
      val tracer = new Tracer(sc, listener)
      attempted.incrementAndGet()
      System.gc()
      val t1 = System.nanoTime()
      val out = Replay.run(sc, rdd, w.d, w.cfg, tracer)
      val wall = secondsSince(t1)
      tracer.drain()
      sc.removeSparkListener(listener)
      verify(out.res, ref, spark).orElse(sameAs(out.res, direct)).foreach { why =>
        failed.incrementAndGet(); log(s"traced replay $rep FAILED: $why")
      }
      (wall, tracer, out)
    }
    writeTrace(env, replays.map(_._2))
    val phaseRuns = replays.map(_._2.phaseMetrics(Replay.Phases, cores))
    val phaseMetrics = phaseRuns.head.keys.map(k => k -> Stats.median(phaseRuns.map(_(k)))).toMap
    val runS = Stats.median(plain.map(_._1))
    val tracedWall = Stats.median(replays.map(_._1))
    val last = replays.last._3
    val rs = plain.map(_._2)
    val runStats = Map(
      "runstats.grid_s" -> Stats.median(rs.map(_.gridMs / 1e3)),
      "runstats.markcore_s" -> Stats.median(rs.map(_.markCoreMs / 1e3)),
      "runstats.clustercore_s" -> Stats.median(rs.map(_.clusterCoreMs / 1e3)),
      "runstats.clusterborder_s" -> Stats.median(rs.map(_.clusterBorderMs / 1e3)))
    val counters = counterMetrics(last)
    rdd.unpersist()
    spark.stop()
    // Kernels run with no SparkContext, on structures from the last replay.
    val kernels = Kernels.run(last.idx, last.flags, last.ctx, w.cfg.eps, o.seed)
    log(f"traced replay median ${tracedWall}%.4f s vs untraced median ${runS}%.4f s")
    val metrics = phaseMetrics ++ counters ++ kernels ++ runStats ++
      Map("trace.overhead_s" -> (tracedWall - runS))
    (metrics, attempted.get, failed.get)
  }

  /** The replay must give exactly what `DBSCAN.run` gives. */
  private def sameAs(a: DBSCANResult, b: DBSCANResult): Option[String] =
    if (a.numClusters != b.numClusters || !(a.isCore sameElements b.isCore) ||
        !(a.coreCluster sameElements b.coreCluster) ||
        !a.borderClusters.iterator.zip(b.borderClusters.iterator).forall { case (x, y) => x sameElements y })
      Some("replay result differs from DBSCAN.run")
    else None

  private def counterMetrics(out: Replay.Out): Map[String, Double] = {
    val idx = out.idx
    val g = out.res.stats.graph
    val sizes = (0 until idx.numCells).map(idx.size)
    val core = out.res.numCore
    val border = (0 until out.res.n).count(i => !out.res.isCore(i) && out.res.borderClusters(i).nonEmpty)
    Map(
      "cells.count" -> idx.numCells.toDouble,
      "cells.size_max" -> sizes.maxOption.getOrElse(0).toDouble,
      "cells.singletons" -> sizes.count(_ == 1).toDouble,
      "cells.neighbor_pairs" -> idx.neighbors.map(_.length.toLong).sum / 2.0,
      "markcore.allcore_cells" -> sizes.count(_ >= w.cfg.minPts).toDouble,
      "markcore.core_pts" -> core.toDouble,
      "clustercore.candidate_pairs" -> g.candidatePairs.toDouble,
      "clustercore.queries" -> g.queriesRun.toDouble,
      "clustercore.prune_frac" ->
        (if (g.candidatePairs > 0) 1.0 - g.queriesRun.toDouble / g.candidatePairs else 0.0),
      "clustercore.edges" -> g.edges.toDouble,
      "clusterborder.border_pts" -> border.toDouble,
      "clusterborder.noise_pts" -> (out.res.n - core - border).toDouble,
      "result.clusters" -> out.res.numClusters.toDouble,
    )
  }

  /** Spans of every traced replay, written when the benchmark ends. */
  private def writeTrace(env: Seq[(String, String)], tracers: Seq[Tracer]): Unit = {
    val dir = o.workDir.resolve("trace")
    Files.createDirectories(dir)
    val spans = tracers.zipWithIndex.flatMap { case (t, rep) =>
      t.allSpans.map { s =>
        "    " + Json.obj(Seq("replay" -> rep.toString, "id" -> s.id.toString,
          "parent" -> s.parent.toString, "name" -> Json.str(s.name), "what" -> Json.str(s.what),
          "start_ms" -> s.startMs.toString, "end_ms" -> s.endMs.toString) ++
          s.attrs.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })
      }
    }
    val text = "{\n  \"env\": " + Json.obj(env) + ",\n  \"spans\": [\n" + spans.mkString(",\n") + "\n  ]\n}\n"
    Files.write(dir.resolve(s"${w.name}-seed${o.seed}.json"), text.getBytes(StandardCharsets.UTF_8))
  }

  private val MinWarmUps = 2
  private val WarmUpSeconds = 10.0
  private val HeapProbes = 3
  private val ParShare = 0.55
  private val Blocks = 3
  private val MinParReps = 2
  private val MinSerialReps = 2
  private val TracedReps = 3
  private val ExtraSetups = 6
}

object Env {
  /** Size of the L3 cache as Linux reports it, or "unknown". */
  def l3Size: String = {
    val base = Paths.get("/sys/devices/system/cpu/cpu0/cache")
    if (!Files.isDirectory(base)) return "unknown"
    Files.list(base).iterator.asScala
      .filter(p => p.getFileName.toString.startsWith("index"))
      .find(p => read(p.resolve("level")).contains("3"))
      .flatMap(p => read(p.resolve("size")))
      .getOrElse("unknown")
  }

  private def read(p: Path): Option[String] =
    if (Files.isRegularFile(p)) Some(new String(Files.readAllBytes(p), StandardCharsets.UTF_8).trim) else None
}
