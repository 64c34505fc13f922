package repro.core

import org.apache.spark.TaskContext
import repro.SparkSpec

/** Partition-count policy (serial runs must really be serial) and the
  * per-cell Spark pass built on it. */
class ParSpec extends SparkSpec {

  test("par=1 yields exactly one partition regardless of work") {
    assert(Par.parts(1000000, 1) === 1)
    assert(Par.parts(1, 1) === 1)
  }

  test("par=2 yields at most two partitions") {
    assert(Par.parts(1000000, 2) === 2)
    assert(Par.parts(1, 2) === 1)
  }

  test("larger parallelism oversubscribes 4x but never exceeds work") {
    assert(Par.parts(1000000, 16) === 64)
    assert(Par.parts(10, 16) === 10)
    assert(Par.parts(0, 16) === 1)
  }

  test("perCell returns every emitted result in input order") {
    val cells = new scala.util.Random(7).shuffle((0 until 500).toVector)
    val got = Par.perCell(spark.sparkContext, cells, par = 3)(c => Iterator(c, -c - 1))
    assert(got.toSeq === cells.flatMap(c => Seq(c, -c - 1)))
    assert(Par.perCell(spark.sparkContext, cells, par = 0)(c => Some(c * 2)).toSeq ===
      cells.map(_ * 2))
  }

  test("perCell runs Par.parts(cells, par) partitions") {
    val sc = spark.sparkContext
    for ((n, par) <- Seq((500, 1), (500, 2), (500, 3), (7, 5), (500, 0))) {
      val parts = Par.perCell(sc, 0 until n, par)(_ => Some(TaskContext.getPartitionId())).distinct
      val p = if (par > 0) par else sc.defaultParallelism
      assert(parts.length === Par.parts(n, p), s"n=$n par=$par")
    }
  }

  test("perCell builds its function once per task") {
    val sc = spark.sparkContext
    val got = Par.perCell(sc, 0 until 500, par = 3) {
      // Runs in the task, before any of its cells.
      val opened = Option(TaskContext.get()).map(_.partitionId())
      var seen = 0
      c => { seen += 1; Some((opened, TaskContext.getPartitionId(), seen, c)) }
    }
    assert(got.map(_._4).toSeq === (0 until 500))
    val tasks = got.groupBy(_._2)
    assert(tasks.size === Par.parts(500, 3))
    for ((part, rows) <- tasks) {
      assert(rows.forall(_._1.contains(part)), s"partition $part: block ran outside its task")
      assert(rows.map(_._3).toSeq === (1 to rows.length), s"partition $part: counter")
    }
  }

  test("coalesce merges down to Par.parts(partitions, par) and leaves smaller RDDs alone") {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(0 until 100, 8)
    for (par <- Seq(1, 2, 3, 0)) {
      val merged = Par.coalesce(rdd, par)
      assert(merged.getNumPartitions === Par.parts(8, Par.threads(sc, par)), s"par=$par")
      assert(merged.collect().toSeq === (0 until 100), s"par=$par")
    }
    assert(Par.coalesce(rdd, 3) eq rdd)
  }

  test("perCell over no cells returns an empty array") {
    assert(Par.perCell(spark.sparkContext, Seq.empty[Int], par = 4)(c => Some(c)).isEmpty)
  }
}
