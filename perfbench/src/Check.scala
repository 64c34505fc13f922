package perfbench

import java.io._
import java.nio.file.{Files, Path, StandardCopyOption}
import repro.baselines.NaiveDBSCAN
import repro.core.{DBSCANResult, Pt}

/** The sequential reference for one (workload, seed): `NaiveDBSCAN`'s
  * result on the same points. */
object Reference {

  /** Loads the reference from `cacheDir` or computes and stores it. The
    * cache key carries the build stamp, so a changed program recomputes. */
  def loadOrCompute(cacheDir: Path, key: String, w: Workload, pts: Array[Pt]): DBSCANResult = {
    val file = cacheDir.resolve(key + ".ref")
    if (Files.isRegularFile(file)) {
      val in = new ObjectInputStream(new BufferedInputStream(Files.newInputStream(file)))
      try return in.readObject().asInstanceOf[DBSCANResult]
      finally in.close()
    }
    val ref = NaiveDBSCAN.run(pts, w.cfg.eps, w.cfg.minPts)
    Files.createDirectories(cacheDir)
    val tmp = Files.createTempFile(cacheDir, key, ".tmp")
    val out = new ObjectOutputStream(new BufferedOutputStream(Files.newOutputStream(tmp)))
    try out.writeObject(ref) finally out.close()
    Files.move(tmp, file, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
    ref
  }
}

/** Output check of an exact variant: None when the run is correct, else the
  * first violation found. */
object Check {

  /** Same core flags, same clusters up to relabelling, same border sets. */
  def apply(got: DBSCANResult, want: DBSCANResult): Option[String] =
    sameCore(got, want).orElse {
      if (got.numClusters != want.numClusters)
        Some(s"${got.numClusters} clusters, reference has ${want.numClusters}")
      else {
        // A consistent map both ways is a bijection between the labellings.
        (for {
          _   <- labelMap(got, got.numClusters, i => want.coreCluster(i), "split")
          w2g <- labelMap(want, want.numClusters, i => got.coreCluster(i), "merged")
        } yield borders(got, want, w2g)).fold(Some(_), identity)
      }
    }

  private def sameCore(got: DBSCANResult, want: DBSCANResult): Option[String] = {
    if (got.n != want.n) return Some(s"n=${got.n}, reference n=${want.n}")
    var i = 0
    while (i < got.n) {
      if (got.isCore(i) != want.isCore(i)) return Some(s"core flag of point $i")
      i += 1
    }
    None
  }

  /** Map from `from`'s cluster ids to the ids `to(i)` of the same core
    * points; Left if one cluster of `from` meets two target clusters. */
  private def labelMap(from: DBSCANResult, k: Int, to: Int => Int,
                       what: String): Either[String, Array[Int]] = {
    val m = Array.fill(k)(-1)
    var i = 0
    while (i < from.n) {
      if (from.isCore(i)) {
        val c = from.coreCluster(i); val t = to(i)
        if (c < 0 || c >= k || t < 0) return Left(s"core point $i has no valid cluster")
        if (m(c) < 0) m(c) = t
        else if (m(c) != t) return Left(s"cluster $c $what (point $i)")
      }
      i += 1
    }
    Right(m)
  }

  /** Every non-core point's border set equals the reference's, mapped
    * through `want2got`. */
  private def borders(got: DBSCANResult, want: DBSCANResult,
                      want2got: Array[Int]): Option[String] = {
    var i = 0
    while (i < got.n) {
      if (!got.isCore(i)) {
        val mapped = want.borderClusters(i).map(want2got).distinct.sorted
        if (!(got.borderClusters(i).sorted sameElements mapped))
          return Some(s"border set of point $i")
      }
      i += 1
    }
    None
  }
}
