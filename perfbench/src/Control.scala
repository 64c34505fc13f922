package perfbench

import java.util.SplittableRandom
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

/** A fixed control job, timed beside the `DBSCAN.run` calls on the same
  * session. Its code and data are written here and never change, and it
  * uses no program code, so a change to the program leaves its time alone.
  * Changes in the host's speed move it about as much as they move a run,
  * because it does the same kind of work: Spark jobs with a shuffle, a
  * collect and a broadcast, over boxed points hashed into grid cells.
  *
  * The job counts the points whose own and neighbouring grid cells hold at
  * least `MinPts` points, over `N` fixed 3-D points in Gaussian blobs. */
final class Control(spark: SparkSession) {
  import Control._

  private val pts: RDD[Array[Double]] = {
    val perChunk = N / Chunks
    spark.sparkContext.parallelize(0 until Chunks, Chunks).flatMap { c =>
      val rnd = new SplittableRandom(c)
      Iterator.fill(perChunk) {
        val b = rnd.nextInt(Blobs)
        Array(b * 300 + rnd.nextGaussian() * 40, (b % 7) * 300 + rnd.nextGaussian() * 40,
          rnd.nextGaussian() * 20)
      }
    }.persist(StorageLevel.MEMORY_ONLY)
  }
  private val expected = pts.count()

  /** Wall seconds of one run of the job. */
  def time(): Double = {
    val t0 = System.nanoTime()
    val dense = run()
    val dt = (System.nanoTime() - t0) / 1e9
    require(dense > 0 && dense <= expected, s"control job counted $dense dense points")
    dt
  }

  private def run(): Long = {
    val counts = pts.map(p => (key(cell(p)), 1)).reduceByKey(_ + _).collectAsMap()
    val bc = spark.sparkContext.broadcast(counts)
    val dense = pts.filter { p =>
      val c = cell(p)
      Offsets.iterator.map(o => bc.value.getOrElse(key(Array(c(0) + o(0), c(1) + o(1), c(2) + o(2))), 0))
        .sum >= MinPts
    }.count()
    bc.destroy()
    dense
  }
}

object Control {
  /** About the job's time on `local[4]` on the 4-core measuring machine. A
    * wall time times `Nominal` / (the job's time beside it) reads as
    * seconds at the host speed where the job takes `Nominal` seconds. */
  val Nominal = 0.3

  private val N = 40000
  private val Chunks = 16
  private val Blobs = 40
  private val Side = 10.0
  private val MinPts = 50
  private val Offsets: Array[Array[Long]] =
    (for (a <- -1L to 1L; b <- -1L to 1L; c <- -1L to 1L) yield Array(a, b, c)).toArray

  private def cell(p: Array[Double]): Array[Long] = p.map(v => math.floor(v / Side).toLong)
  private def key(c: Array[Long]): Long = (c(0) * 1000003L + c(1)) * 1000003L + c(2)
}
