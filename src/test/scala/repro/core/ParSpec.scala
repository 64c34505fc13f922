package repro.core

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.TaskContext
import repro.{SparkSpec, TestUtil}

/** Partition-count policy (serial runs must really be serial), the one job
  * primitive, and the per-cell Spark pass built on them. */
class ParSpec extends SparkSpec {

  private def jobsOf[T](body: => T): (T, Int) = TestUtil.jobsOf(spark.sparkContext)(body)

  test("par=1 yields exactly one partition regardless of work") {
    assert(Par.parts(1000000, 1) === 1)
    assert(Par.parts(1, 1) === 1)
  }

  test("par=2 yields at most two partitions") {
    assert(Par.parts(1000000, 2) === 2)
    assert(Par.parts(1, 2) === 1)
  }

  test("p threads give exactly p tasks, never more than the work") {
    assert(Par.parts(1000000, 16) === 16)
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
      val (ids, jobs) = jobsOf(Par.perCell(sc, 0 until n, par)(_ => Some(TaskContext.getPartitionId())))
      val p = if (par > 0) par else sc.defaultParallelism
      assert(ids.distinct.length === Par.parts(n, p), s"n=$n par=$par")
      assert(jobs === 1, s"n=$n par=$par: jobs")
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
    assert(Par.coalesce(rdd, 8) eq rdd)
    assert(Par.coalesce(rdd, 16) eq rdd)
  }

  test("perCell over no cells returns an empty array") {
    assert(Par.perCell(spark.sparkContext, Seq.empty[Int], par = 4)(c => Some(c)).isEmpty)
  }

  test("collect returns each partition's results in partition order, in one job") {
    // Partition i of 6 holds 10i until 10i + 10; odd partitions keep nothing
    // and even ones their first i + 1 values. Partition 0 finishes last.
    val rdd = spark.sparkContext.parallelize(0 until 60, 6).mapPartitionsWithIndex { (i, it) =>
      if (i == 0) Thread.sleep(100)
      if (i % 2 == 1) Iterator.empty else it.take(i + 1)
    }
    val (got, jobs) = jobsOf(Par.collect(rdd)(it => ((-1 - TaskContext.getPartitionId()) +: it.toSeq).toArray))
    assert(got.toSeq === Seq(-1, 0, -2, -3, 20, 21, 22, -4, -5, 40, 41, 42, 43, 44, -6))
    assert(jobs === 1)
  }

  test("collect over no partitions, or only empty ones, returns an empty array") {
    val sc = spark.sparkContext
    assert(sc.emptyRDD[Int].getNumPartitions === 0)
    assert(Par.collect(sc.emptyRDD[Int])(_.toArray).isEmpty)
    val (got, jobs) = jobsOf(Par.collect(sc.parallelize(Seq.empty[Int], 3))(_.toArray))
    assert(got.isEmpty)
    assert(jobs === 1)
  }

  test("no code under src/main/scala/repro/core sizes an RDD outside object Par") {
    // Par decides every stage's task count; a parallelize, coalesce or
    // repartition elsewhere in core/ would bypass its policy.
    val core = Paths.get("src", "main", "scala", "repro", "core")
    assert(Files.isDirectory(core), s"no $core under ${sys.props("user.dir")}")
    val files = Files.walk(core).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq
    def outsidePar(f: Path) = {
      val ls = Files.readAllLines(f).asScala.toVector
      // `object Par` runs from its header to the next closing brace in column 0.
      val from = ls.indexWhere(_.startsWith("object Par "))
      val until = if (from < 0) -1 else ls.indexWhere(_ == "}", from)
      ls.zipWithIndex.collect {
        case (l, i) if (i < from || i > until) && !Seq("*", "//", "/*").exists(l.trim.startsWith) =>
          (s"$f:${i + 1}", l.split("//")(0))
      }
    }
    // `Par.coalesce(` is the policy's own entry point.
    val call = """parallelize\(|(?<!\bPar)\.coalesce\(|\.repartition\(""".r
    val sized = files.flatMap(outsidePar).filter { case (_, l) => call.findFirstIn(l).isDefined }
    assert(sized.isEmpty, s": RDD sized outside Par at ${sized.map(_._1).mkString(", ")}")
    assert(files.exists(f => Files.readAllLines(f).asScala.exists(_.startsWith("object Par "))), ": no object Par")
  }

  test("no code under src/main calls .collect() or runJob outside Par.collect") {
    // RDD.collect() and the short runJob overloads make Spark's closure
    // cleaner parse its own RDD and SparkContext classes on every job.
    val main = Paths.get("src", "main", "scala")
    assert(Files.isDirectory(main), s"no $main under ${sys.props("user.dir")}")
    val files = Files.walk(main).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq
    def lines(f: Path) = Files.readAllLines(f).asScala.zipWithIndex.collect {
      case (l, i) if !Seq("*", "//", "/*").exists(l.trim.startsWith) =>
        (s"$f:${i + 1}", l.split("//")(0))
    }
    val code = files.flatMap(lines)
    val collects = code.filter(_._2.contains(".collect()")).map(_._1)
    assert(collects.isEmpty, s": .collect() outside Par.collect at ${collects.mkString(", ")}")
    val runJobs = code.filter(_._2.contains("runJob(")).map(_._1)
    assert(runJobs.length === 1 && runJobs.head.contains("DBSCAN.scala"), s": runJob at ${runJobs.mkString(", ")}")
  }
}
