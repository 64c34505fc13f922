package repro.core

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.TaskContext
import repro.{SparkSpec, TestUtil}

/** Partition-count policy (serial runs must really be serial), the one job
  * primitive, and the per-cell Spark pass built on them, over one sequence
  * or two. */
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

  test("slices returns one block per range, in range order") {
    // Task 0 finishes last.
    val got = Par.slices(spark.sparkContext, 500, par = 3) { (from, until) =>
      if (from == 0) Thread.sleep(100)
      (from until until).toArray
    }
    assert(got.length === 3)
    assert(got.flatten.toSeq === (0 until 500))
  }

  test("slices cuts [0, n) into Par.parts(n, p) equal ranges, one task each") {
    val sc = spark.sparkContext
    for ((n, par) <- Seq((500, 1), (500, 2), (500, 3), (7, 5), (3, 4), (500, 0))) {
      val got = Par.slices(sc, n, par)((from, until) => (from, until, TaskContext.getPartitionId()))
      val p = if (par > 0) par else sc.defaultParallelism
      assert(got.length === Par.parts(n, p), s"n=$n par=$par")
      assert(got.map(_._3).toSeq === got.indices, s"n=$n par=$par: tasks")
      assert(got.head._1 === 0 && got.last._2 === n, s"n=$n par=$par: bounds")
      assert(got.indices.tail.forall(t => got(t)._1 == got(t - 1)._2), s"n=$n par=$par: gaps")
      val lengths = got.map(r => r._2 - r._1)
      assert(lengths.max - lengths.min <= 1, s"n=$n par=$par: lengths ${lengths.mkString(", ")}")
    }
  }

  test("slices is one job, and n = 0 runs no job") {
    val sc = spark.sparkContext
    assert(jobsOf(Par.slices(sc, 500, par = 3)((from, until) => until - from))._2 === 1)
    val (empty, jobs) = jobsOf(Par.slices(sc, 0, par = 4)((from, until) => until - from))
    assert(empty.isEmpty)
    assert(jobs === 0)
  }

  test("slices2 cuts [0, n1) and [0, n2) into the same Par.parts(max(n1, n2), p) tasks, in order") {
    val sc = spark.sparkContext
    for ((n1, n2, par) <- Seq((500, 7, 3), (7, 500, 3), (3, 10, 4), (10, 3, 4), (5, 5, 2), (0, 9, 4),
                              (9, 0, 4), (1, 1, 1), (300, 40, 0))) {
      val clue = s"n1=$n1 n2=$n2 par=$par"
      val (got, jobs) = jobsOf(Par.slices2(sc, n1, n2, par)((f1, u1, f2, u2) =>
        (f1, u1, f2, u2, TaskContext.getPartitionId())))
      val p = if (par > 0) par else sc.defaultParallelism
      assert(jobs === 1, clue)
      assert(got.length === Par.parts(math.max(n1, n2), p), clue)
      assert(got.map(_._5).toSeq === got.indices, s"$clue: tasks")
      for ((n, from, until) <- Seq((n1, got.map(_._1), got.map(_._2)), (n2, got.map(_._3), got.map(_._4)))) {
        assert(from.head === 0 && until.last === n, s"$clue: bounds")
        assert(from.indices.forall(t => from(t) <= until(t)), s"$clue: order")
        assert(from.indices.tail.forall(t => from(t) == until(t - 1)), s"$clue: gaps")
        val lengths = from.indices.map(t => until(t) - from(t))
        assert(lengths.max - lengths.min <= 1, s"$clue: lengths ${lengths.mkString(", ")}")
      }
    }
    val (empty, jobs) = jobsOf(Par.slices2(sc, 0, 0, par = 4)((f1, u1, f2, u2) => u1 - f1 + u2 - f2))
    assert(empty.isEmpty)
    assert(jobs === 0)
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

  /** The code lines, with their places, of the files under
    * src/main/scala/repro/core outside `object Par`. */
  private def coreOutsidePar: Seq[(String, String)] = {
    val core = Paths.get("src", "main", "scala", "repro", "core")
    assert(Files.isDirectory(core), s"no $core under ${sys.props("user.dir")}")
    val files = Files.walk(core).iterator.asScala.filter(_.toString.endsWith(".scala")).toSeq
    assert(files.exists(f => Files.readAllLines(f).asScala.exists(_.startsWith("object Par "))), ": no object Par")
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
    files.flatMap(outsidePar)
  }

  test("no code under src/main/scala/repro/core sizes an RDD outside object Par") {
    // Par decides every stage's task count; a parallelize, coalesce or
    // repartition elsewhere in core/ would bypass its policy.
    // `Par.coalesce(` is the policy's own entry point.
    val call = """parallelize\(|(?<!\bPar)\.coalesce\(|\.repartition\(""".r
    val sized = coreOutsidePar.filter { case (_, l) => call.findFirstIn(l).isDefined }
    assert(sized.isEmpty, s": RDD sized outside Par at ${sized.map(_._1).mkString(", ")}")
  }

  test("no code under src/main/scala/repro/core cuts task ranges outside object Par") {
    // `Par.slices` hands every per-cell task its range of the cells.
    val cut = """\*\s*\(?t\b[^/]*/\s*tasks""".r
    val cuts = coreOutsidePar.filter { case (_, l) => cut.findFirstIn(l).isDefined }
    assert(cuts.isEmpty, s": task range cut outside Par at ${cuts.map(_._1).mkString(", ")}")
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
