package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.Pt

import java.util.SplittableRandom

/** Deterministic synthetic spatial datasets for the DBSCAN reproduction.
  *
  * The paper evaluates on Gan & Tao's seed-spreader (SS) generator
  * (similar-density and variable-density variants), a UniformFill dataset,
  * and five real datasets. The real datasets (GeoLife, Cosmo50,
  * OpenStreetMap, TeraClickLog) are unavailable offline, so each has a
  * synthetic stand-in reproducing its *relevant trait* — see DESIGN.md §5.
  *
  * All generators: coordinates in `[0, 100000]^d` (Gan & Tao's domain),
  * point ids dense in `[0, n)`, fully determined by `(n, d, seed)`. Points
  * are produced chunk-parallel: each chunk derives its own SplittableRandom
  * stream, so the output is independent of Spark partitioning.
  */
object SpatialData {
  val DomainSide = 100000.0

  /** Materialize an RDD of points from a chunked generator function. */
  private def chunked(spark: SparkSession, n: Long, numChunks: Int)(
      gen: (Int, Long, Long) => Iterator[Pt]): RDD[Pt] = {
    val per = (n + numChunks - 1) / numChunks
    val ranges = (0 until numChunks).map { c =>
      val start = c.toLong * per
      (c, start, math.min(n, start + per))
    }.filter { case (_, s, e) => e > s }
    spark.sparkContext
      .parallelize(ranges, math.min(ranges.size, spark.sparkContext.defaultParallelism * 2))
      .flatMap { case (c, s, e) => gen(c, s, e) }
  }

  private def clampDomain(v: Double): Double =
    math.max(0.0, math.min(DomainSide, v))

  /** Gan & Tao's seed-spreader: a random walk that "sprays" points around a
    * drifting center and restarts at a random location `numRestarts` times,
    * producing that many clusters plus uniform background noise.
    *
    * `varden = true` scales each restart segment's spray radius and drift up
    * (variable-density clusters); `varden = false` keeps them equal
    * (similar-density).
    */
  def seedSpreader(spark: SparkSession, n: Long, d: Int, varden: Boolean = false,
                   numRestarts: Int = 10, noiseFrac: Double = 0.001,
                   seed: Long = 42): RDD[Pt] = {
    require(d >= 2 && numRestarts >= 1)
    val nNoise = (n * noiseFrac).toLong
    val nWalk = n - nNoise
    // One chunk per restart segment: the walk inside a segment is sequential,
    // segments are independent — same structure the PBBS/G&T generator has.
    val walk = chunked(spark, nWalk, numRestarts) { (k, s, e) =>
      val rnd = new SplittableRandom(seed * 1000003L + k)
      // Density scale: simden uses 1 for all segments; varden spreads
      // segments across a 1..8x radius range (≈64x density range in 2D).
      val scale = if (varden) math.pow(2.0, 3.0 * k.toDouble / math.max(1, numRestarts - 1)) else 1.0
      val spray = 100.0 * scale     // spray radius around the center
      val drift = 2.0 * scale      // center movement per emitted point
      val c = Array.fill(d)(rnd.nextDouble() * DomainSide)
      (s until e).iterator.map { i =>
        var j = 0
        while (j < d) { c(j) = clampDomain(c(j) + (rnd.nextDouble() * 2 - 1) * drift); j += 1 }
        val x = new Array[Double](d)
        j = 0
        while (j < d) { x(j) = clampDomain(c(j) + (rnd.nextDouble() * 2 - 1) * spray); j += 1 }
        Pt(i, x)
      }
    }
    val noise = chunked(spark, nNoise, 8) { (c, s, e) =>
      val rnd = new SplittableRandom(seed * 7777779L + c)
      (s until e).iterator.map(i => Pt(nWalk + i, Array.fill(d)(rnd.nextDouble() * DomainSide)))
    }
    if (nNoise == 0) walk else walk.union(noise)
  }

  /** Uniform points in a hypercube of side sqrt(n) (paper's UniformFill). */
  def uniformFill(spark: SparkSession, n: Long, d: Int, seed: Long = 43): RDD[Pt] = {
    val side = math.sqrt(n.toDouble)
    chunked(spark, n, 32) { (c, s, e) =>
      val rnd = new SplittableRandom(seed * 31337L + c)
      (s until e).iterator.map(i => Pt(i, Array.fill(d)(rnd.nextDouble() * side)))
    }
  }

  /** GeoLife stand-in (3D, 25M → scaled): extreme density skew — ~80% of the
    * points in one tiny dense region ("Beijing"), the rest spread as
    * city-hopping walks. The dense region forces a handful of cells to hold
    * most of the data, which is what makes skewed BCP connectivity queries
    * expensive and the bucketing optimization win (paper §7.2, Fig. 6(j)). */
  def geoLifeSim(spark: SparkSession, n: Long, seed: Long = 44): RDD[Pt] = {
    val d = 3
    chunked(spark, n, 64) { (c, s, e) =>
      val rnd = new SplittableRandom(seed * 900001L + c)
      val center = Array(DomainSide / 2, DomainSide / 2, 500.0)
      (s until e).iterator.map { i =>
        val x = new Array[Double](d)
        if (rnd.nextDouble() < 0.8) {
          // Dense city core: Gaussian, sigma 60 in x/y, 15 in altitude.
          x(0) = clampDomain(center(0) + rnd.nextGaussian() * 60)
          x(1) = clampDomain(center(1) + rnd.nextGaussian() * 60)
          x(2) = clampDomain(center(2) + rnd.nextGaussian() * 15)
        } else {
          // Sparse countryside traces: uniform with mild altitude spread.
          x(0) = rnd.nextDouble() * DomainSide
          x(1) = rnd.nextDouble() * DomainSide
          x(2) = clampDomain(500.0 + rnd.nextGaussian() * 100)
        }
        Pt(i, x)
      }
    }
  }

  /** Cosmo50 stand-in (3D N-body snapshot): filamentary clusters — the
    * seed-spreader walk with many restarts approximates halo/filament
    * structure at reduced scale. */
  def cosmoSim(spark: SparkSession, n: Long, seed: Long = 45): RDD[Pt] =
    seedSpreader(spark, n, d = 3, varden = false, numRestarts = 20, noiseFrac = 0.05, seed = seed)

  /** OpenStreetMap stand-in (2D GPS): 64 dense blobs (cities) with sizes
    * following a power law, over a uniform background. */
  def osmSim(spark: SparkSession, n: Long, seed: Long = 46): RDD[Pt] = {
    val d = 2
    chunked(spark, n, 64) { (c, s, e) =>
      val rnd = new SplittableRandom(seed * 5500001L + c)
      // City centers/sizes are derived from the seed alone (same in every
      // chunk), so chunks agree on the geography.
      val crnd = new SplittableRandom(seed)
      val cities = Array.fill(64)(
        (crnd.nextDouble() * DomainSide, crnd.nextDouble() * DomainSide,
         40.0 * math.pow(crnd.nextDouble(), -0.5))) // sigma in [40, ~inf), power-law-ish
      (s until e).iterator.map { i =>
        val x = new Array[Double](d)
        if (rnd.nextDouble() < 0.9) {
          val (cx, cy, sg) = cities(rnd.nextInt(cities.length))
          x(0) = clampDomain(cx + rnd.nextGaussian() * sg)
          x(1) = clampDomain(cy + rnd.nextGaussian() * sg)
        } else {
          x(0) = rnd.nextDouble() * DomainSide
          x(1) = rnd.nextDouble() * DomainSide
        }
        Pt(i, x)
      }
    }
  }

  /** TeraClickLog stand-in (13D ad-click features): at the paper's parameter
    * choice *all points fall into a single cell* (coordinate spread ≪ ε), so
    * every point is core and the clustering is trivially one cluster — the
    * degenerate path the paper calls out for Table 2. Coordinates span only
    * [0, 100] per dimension; benches use ε ≥ 1500 as in the paper. */
  def teraClickSim(spark: SparkSession, n: Long, seed: Long = 47): RDD[Pt] = {
    val d = 13
    chunked(spark, n, 64) { (c, s, e) =>
      val rnd = new SplittableRandom(seed * 123457L + c)
      (s until e).iterator.map(i => Pt(i, Array.fill(d)(rnd.nextDouble() * 100.0)))
    }
  }
}
