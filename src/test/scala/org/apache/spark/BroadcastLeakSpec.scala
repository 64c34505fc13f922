package org.apache.spark

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestUtil}
import repro.baselines.{HpDbscan, PdsDbscan, RpDbscan}
import repro.core._

/** A DBSCAN call must not leave broadcasts behind in a long-lived session:
  * after it returns, or throws, no broadcast it created may still hold a
  * value block in the driver's block manager. Task binaries (`Array[Byte]`,
  * which Spark's ContextCleaner reclaims) are exempt.
  *
  * Lives in `org.apache.spark` because `BlockManager` is `private[spark]`. */
class BroadcastLeakSpec extends SparkSpec {

  /** Id of the most recently created broadcast. */
  private def lastBroadcastId(): Long = {
    val probe = spark.sparkContext.broadcast(0)
    probe.destroy()
    probe.id
  }

  /** Ids above `after` whose broadcast value is still stored on the driver. */
  private def liveSince(after: Long): Seq[Long] = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(id, "") => id > after
      case _                        => false
    }.flatMap { block =>
      // Draining the values releases the read lock getLocalValues takes.
      val values = bm.getLocalValues(block).map(_.data.toList).getOrElse(Nil)
      if (values.nonEmpty && !values.forall(_.isInstanceOf[Array[Byte]]))
        Some(block.asInstanceOf[BroadcastBlockId].broadcastId)
      else None
    }
  }

  private def assertNoLeak(body: => Unit): Unit = {
    val before = lastBroadcastId()
    body
    // `destroy()` removes blocks asynchronously; a leaked broadcast stays.
    eventually(timeout(10.seconds), interval(50.millis)) {
      val live = liveSince(before)
      assert(live.isEmpty, s"broadcasts still live after the call: ${live.sorted.mkString(", ")}")
    }
  }

  /** Runs `body` with its k-th Spark job cancelled. `body` runs in a job
    * group of its own; once its job k - 1 ends (for k = 1, before it starts),
    * the group's running and future jobs are cancelled, so job k fails even
    * when it is submitted before the listener hears of job k - 1's end. */
  private def cancellingJob[T](k: Int)(body: => T): T = {
    val sc = spark.sparkContext
    val group = s"cancel-job-$k-${System.nanoTime()}"
    def cancel(): Unit = sc.cancelJobGroupAndFutureJobs(group, s"cancel job $k")
    val listener = new SparkListener {
      private val ours = scala.collection.mutable.Set[Int]() // listener-bus thread only
      private var ended = 0
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(SparkContext.SPARK_JOB_GROUP_ID) == group))
          ours += e.jobId
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (ours.contains(e.jobId)) { ended += 1; if (ended == k - 1) cancel() }
    }
    sc.addSparkListener(listener)
    sc.setJobGroup(group, s"cancel job $k")
    try {
      if (k == 1) cancel()
      body
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  private val pts2d = TestUtil.blobPts(600, 2, numBlobs = 4, sigma = 2.0, extent = 60.0,
    noiseFrac = 0.1, seed = 5L)

  test("box2d destroys its strip and y-boundary broadcasts") {
    assertNoLeak {
      val idx = CellIndex.box2d(spark.sparkContext.parallelize(pts2d.toSeq, 4), eps = 3.0)
      assert(idx.n === pts2d.length)
    }
  }

  test("a Delaunay run destroys every broadcast it creates") {
    assertNoLeak {
      val cfg = DBSCANConfig(3.0, 5, GridCells, ScanCore, DelaunayGraph)
      val res = DBSCAN.run(spark, spark.sparkContext.parallelize(pts2d.toSeq, 4), 2, cfg)
      assert(res.numClusters > 0)
    }
  }

  test("a run that fails in a phase still destroys its broadcasts") {
    // Job 3 is MarkCore's (cells run 1, the cell quadtrees 1): it fails
    // after the cell index and the cell quadtrees are broadcast.
    assertNoLeak {
      val cfg = DBSCANConfig(3.0, 5, GridCells, QtCore, UsecGraph)
      intercept[SparkException] {
        cancellingJob(3)(DBSCAN.run(spark, spark.sparkContext.parallelize(pts2d.toSeq, 4), 2, cfg))
      }
    }
  }

  test("an RpDbscan run that rejects its ids still destroys its label broadcasts") {
    val badIds = pts2d.map(p => if (p.id == 7) Pt(pts2d.length + 5, p.x) else p)
    assertNoLeak {
      intercept[Exception](RpDbscan.run(spark, spark.sparkContext.parallelize(badIds.toSeq, 4), 2, 3.0, 5))
    }
  }

  test("a PdsDbscan run that rejects a point of the wrong arity leaves no broadcast") {
    val bad = pts2d.map(p => if (p.id == 7) Pt(7, Array(p.x(0))) else p)
    assertNoLeak {
      intercept[Exception](PdsDbscan.run(spark, bad, 3.0, 5))
    }
  }

  /** The number of Spark jobs `body` runs. */
  private def jobsOf(body: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"count-jobs-${System.nanoTime()}"
    sc.setJobGroup(group, "count jobs")
    try body finally sc.clearJobGroup()
    sc.listenerBus.waitUntilEmpty()
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  private val baselines = Map[String, () => DBSCANResult](
    "PdsDbscan" -> (() => PdsDbscan.run(spark, pts2d, 3.0, 5)),
    "HpDbscan" -> (() => HpDbscan.run(spark, pts2d, 3.0, 5)))

  test("PdsDbscan and HpDbscan each run two Spark jobs") {
    // The cancellation tests below cover jobs 1 and 2 of each baseline.
    for ((name, run) <- baselines) assert(jobsOf(run()) === 2, name)
  }

  // PdsDbscan broadcasts before its first job and between its two; HpDbscan
  // broadcasts once, between its two.
  for ((name, k) <- Seq("PdsDbscan" -> 1, "PdsDbscan" -> 2, "HpDbscan" -> 1, "HpDbscan" -> 2))
    test(s"a $name run whose job $k is cancelled leaves no broadcast") {
      assertNoLeak {
        intercept[SparkException](cancellingJob(k)(baselines(name)()))
      }
    }

  test("an our-exact-bucketing run cancelled at any of its jobs leaves no broadcast") {
    val cfg = DBSCANConfig.named("our-exact-bucketing", 3.0, 5, 0.0).get
    def run() = DBSCAN.run(spark, spark.sparkContext.parallelize(pts2d.toSeq, 4), 2, cfg)
    var res: DBSCANResult = null
    val jobs = jobsOf { res = run() }
    // Both buckets hold core cells, so ClusterCore runs two jobs, each
    // shipping its union-find snapshot in its closure.
    assert(res.stats.graph.numCoreCells >= cfg.numBuckets)
    assert(jobs >= 4, s"$jobs jobs") // cells 1, MarkCore 1, buckets 2 (ClusterBorder's test in the last)
    for (k <- 1 to jobs) withClue(s"job $k of $jobs: ") {
      assertNoLeak {
        intercept[SparkException](cancellingJob(k)(run()))
      }
    }
  }
}
