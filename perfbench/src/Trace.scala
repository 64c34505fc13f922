package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler._
import org.apache.spark.storage.BroadcastBlockId
import repro.core._
import repro.geometry.QuadTree
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One span: a benchmark-side call into a layer, or a Spark job inside it. */
final case class Span(id: Int, parent: Int, name: String, what: String,
                      startMs: Long, endMs: Long, attrs: Map[String, Double])

/** Spark-side record of one job, filled in by [[JobListener]]. */
final class JobRec(val jobId: Int, val span: Int, val startMs: Long) {
  @volatile var endMs: Long = -1
  val taskMs = mutable.ArrayBuffer[Long]()
  var resultBytes = 0L
  var shuffleBytes = 0L
}

/** Collects jobs, tasks and broadcast pieces. Jobs are tagged with the span
  * that submitted them through a local property; broadcasts are attributed
  * by id, using marker broadcasts the tracer creates at span starts. */
final class JobListener extends SparkListener {
  val jobs = mutable.LinkedHashMap[Int, JobRec]()
  private val stageJob = mutable.HashMap[Int, Int]()
  /** Serialized bytes of broadcast pieces, by broadcast id. */
  val broadcastBytes = mutable.HashMap[Long, Long]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(JobListener.SpanKey)))
      .map(_.toInt).getOrElse(-1)
    jobs(e.jobId) = new JobRec(e.jobId, span, e.time)
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageJob.get(e.stageId); rec <- jobs.get(j)) {
      rec.taskMs += e.taskInfo.duration
      val m = e.taskMetrics
      if (m != null) {
        rec.resultBytes += m.resultSize
        rec.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    e.blockUpdatedInfo.blockId match {
      case BroadcastBlockId(id, field) if field.startsWith("piece") =>
        val info = e.blockUpdatedInfo
        broadcastBytes(id) = broadcastBytes.getOrElse(id, 0L) + info.memSize + info.diskSize
      case _ =>
    }
  }

  def allEnded: Boolean = synchronized(jobs.valuesIterator.forall(_.endMs >= 0))
}

object JobListener {
  val SpanKey = "perfbench.span"
}

/** Records spans around calls into the layers and, at the end, turns them
  * and the listener's jobs into per-phase metrics. Spans stay in memory. */
final class Tracer(sc: SparkContext, listener: JobListener) {
  private val spans = mutable.ArrayBuffer[Span]()
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  /** (span id, id of the marker broadcast created at its start). */
  private val markers = mutable.ArrayBuffer[(Int, Long)]()
  private val markerIds = mutable.HashSet[Long]()

  private def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Runs `body` as one span of phase `name`; `what` names the call. */
  def span[A](name: String, what: String)(body: => A): A = {
    val id = Tracer.nextSpanId.getAndIncrement()
    val marker = sc.broadcast(id)
    markers += ((id, marker.id)); markerIds += marker.id
    marker.destroy()
    sc.setLocalProperty(JobListener.SpanKey, id.toString)
    val gc0 = gcMs
    val t0 = System.currentTimeMillis()
    try body
    finally {
      val t1 = System.currentTimeMillis()
      sc.setLocalProperty(JobListener.SpanKey, null)
      spans += Span(id, -1, name, what, t0, t1, Map("gc_s" -> (gcMs - gc0) / 1e3))
    }
  }

  /** Waits until the listener has seen every event posted so far: a final
    * marker's broadcast piece is queued after all earlier job events. */
  def drain(): Unit = {
    val end = sc.broadcast(-1)
    end.destroy()
    val deadline = System.currentTimeMillis() + 30000
    while (!(listener.allEnded && listener.synchronized(listener.broadcastBytes.contains(end.id)))) {
      if (System.currentTimeMillis() > deadline)
        throw new IllegalStateException("Spark listener did not drain within 30 s")
      Thread.sleep(5)
    }
    markers += ((-1, end.id)); markerIds += end.id
  }

  /** Job child spans, for the trace file. */
  def jobSpans: Seq[Span] = listener.synchronized {
    listener.jobs.valuesIterator.filter(j => spans.exists(_.id == j.span)).map { j =>
      Span(1000000 + j.jobId, j.span, "spark.job", s"job ${j.jobId}", j.startMs, j.endMs,
        Map("tasks" -> j.taskMs.size.toDouble, "task_s" -> j.taskMs.sum / 1e3,
          "result_mb" -> j.resultBytes / Mb, "shuffle_mb" -> j.shuffleBytes / Mb))
    }.toSeq
  }

  def allSpans: Seq[Span] = spans.toSeq ++ jobSpans

  /** Per-phase metrics over every span of each phase. */
  def phaseMetrics(phases: Seq[String], cores: Int): Map[String, Double] = listener.synchronized {
    // Broadcast id -> span: each marker opens a range that runs to the next;
    // the marker of drain() closes the last one.
    val sortedMarkers = markers.sortBy(_._2)
    def spanOfBroadcast(id: Long): Option[Int] =
      sortedMarkers.takeWhile(_._2 < id).lastOption.map(_._1).filter(_ >= 0)
    val bcBySpan = listener.broadcastBytes.toSeq
      .filterNot { case (id, _) => markerIds.contains(id) }
      .flatMap { case (id, b) => spanOfBroadcast(id).map(_ -> b) }
      .groupMapReduce(_._1)(_._2)(_ + _)
    phases.flatMap { p =>
      val ss = spans.filter(_.name == p)
      val ids = ss.map(_.id).toSet
      val js = listener.jobs.valuesIterator.filter(j => ids.contains(j.span)).toSeq
      val wall = ss.map(s => s.endMs - s.startMs).sum / 1e3
      val jobWall = js.map(j => j.endMs - j.startMs).sum / 1e3
      val tasks = js.flatMap(_.taskMs).sorted
      val taskS = tasks.sum / 1e3
      val skew = if (tasks.isEmpty) 0.0 else tasks.last.toDouble / math.max(1L, Stats.medianL(tasks))
      Seq(
        s"$p.wall_s" -> wall,
        s"$p.self_s" -> math.max(0.0, wall - jobWall),
        s"$p.jobs" -> js.size.toDouble,
        s"$p.tasks" -> tasks.size.toDouble,
        s"$p.task_s" -> taskS,
        s"$p.task_skew" -> skew,
        s"$p.busy_frac" -> (if (wall > 0) taskS / (wall * cores) else 0.0),
        s"$p.shuffle_mb" -> js.map(_.shuffleBytes).sum / Mb,
        s"$p.result_mb" -> js.map(_.resultBytes).sum / Mb,
        s"$p.broadcast_mb" -> ids.toSeq.map(bcBySpan.getOrElse(_, 0L)).sum / Mb,
        s"$p.gc_s" -> ss.map(_.attrs("gc_s")).sum,
      )
    }.toMap
  }

  private val Mb = 1024.0 * 1024.0
}

object Tracer {
  /** Span ids are unique in the process, so several tracers can share one
    * listener. Job spans are numbered apart from them. */
  private val nextSpanId = new java.util.concurrent.atomic.AtomicInteger(0)
}

/** Benchmark-side replay of `DBSCAN.run`: the same public phase calls in the
  * same order, each wrapped in a span. Glue that `DBSCAN.run` does between
  * phases (broadcasts, densifying cluster ids, the label scatter) is traced
  * as phase `driver`. The returned result must equal `DBSCAN.run`'s. */
object Replay {
  val Phases: Seq[String] = Seq("cells", "markcore", "connctx", "clustercore", "clusterborder", "driver")

  /** Result plus the intermediate structures the kernel benches sample. */
  final case class Out(res: DBSCANResult, idx: CellIndex, flags: Array[Boolean], ctx: ConnCtx)

  def run(sc: SparkContext, points: RDD[Pt], d: Int, cfg: DBSCANConfig, t: Tracer): Out = {
    val par = sc.defaultParallelism
    val idx = t.span("cells", "CellIndex") {
      cfg.cellMethod match {
        case GridCells => CellIndex.grid(points, cfg.eps, d)
        case BoxCells  => CellIndex.box2d(points, cfg.eps)
      }
    }
    val bcIdx = t.span("driver", "broadcast CellIndex")(sc.broadcast(idx))
    val qts = cfg.coreMethod match {
      case QtCore   => Some(t.span("markcore", "MarkCore.buildCellQuadTrees")(
        MarkCore.buildCellQuadTrees(sc, bcIdx, par)))
      case ScanCore => None
    }
    val bcQt: Option[Broadcast[Array[QuadTree]]] =
      qts.map(q => t.span("driver", "broadcast cell quadtrees")(sc.broadcast(q)))
    val flags = t.span("markcore", "MarkCore.run")(MarkCore.run(sc, bcIdx, cfg.minPts, bcQt, par))
    val bcFlags = t.span("driver", "broadcast core flags")(sc.broadcast(flags))
    val ctx = t.span("connctx", "ConnCtx.build")(ConnCtx.build(sc, bcIdx, bcFlags, cfg.graphMethod, par))
    val bcCtx = t.span("driver", "broadcast ConnCtx")(sc.broadcast(ctx))
    val (comp, gStats) = t.span("clustercore", "ClusterCore.run") {
      ClusterCore.run(sc, bcIdx, bcFlags, bcCtx, cfg.graphMethod, cfg.bucketing, cfg.numBuckets, par)
    }
    val (compIds, cellCluster, bcCellCluster) = t.span("driver", "densify cluster ids") {
      val ids = comp.filter(_ >= 0).distinct.sorted
      val toCluster = ids.zipWithIndex.toMap
      val cc = comp.map(c => if (c >= 0) toCluster(c) else -1)
      (ids, cc, sc.broadcast(cc))
    }
    val border = t.span("clusterborder", "ClusterBorder.run") {
      ClusterBorder.run(sc, bcIdx, bcFlags, bcCellCluster, cfg.minPts, par)
    }
    val res = t.span("driver", "label scatter") {
      val n = idx.n.toInt
      val coreCluster = Array.fill(n)(-1)
      var c = 0
      while (c < idx.numCells) {
        if (cellCluster(c) >= 0) idx.pts(c).foreach { p =>
          if (flags(p.id.toInt)) coreCluster(p.id.toInt) = cellCluster(c)
        }
        c += 1
      }
      Seq(bcIdx, bcFlags, bcCtx, bcCellCluster).foreach(_.destroy())
      bcQt.foreach(_.destroy())
      DBSCANResult(n, flags, coreCluster, border, compIds.length, RunStats(0, 0, 0, 0, gStats))
    }
    Out(res, idx, flags, ctx)
  }
}
