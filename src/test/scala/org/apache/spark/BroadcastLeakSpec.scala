package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestUtil}
import repro.baselines.{PdsDbscan, RpDbscan}
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
    // USEC is 2D-only: ConnCtx.build rejects 3D input after MarkCore ran.
    val pts3d = TestUtil.blobPts(300, 3, numBlobs = 2, sigma = 2.0, extent = 40.0,
      noiseFrac = 0.1, seed = 6L)
    assertNoLeak {
      val cfg = DBSCANConfig(4.0, 5, GridCells, ScanCore, UsecGraph)
      intercept[IllegalArgumentException] {
        DBSCAN.run(spark, spark.sparkContext.parallelize(pts3d.toSeq, 4), 3, cfg)
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
}
