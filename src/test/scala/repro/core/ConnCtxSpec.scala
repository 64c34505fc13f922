package repro.core

import java.util.SplittableRandom
import repro.{SparkSpec, TestUtil}

/** MarkCore's one job, which marks core points and sets up the connectivity
  * context (`MarkCore.withCtx`), against the two calls it fuses:
  * `MarkCore.run`, then `ConnCtx.build` on its flags; and both against the
  * context set up directly from the flags. */
class ConnCtxSpec extends SparkSpec {

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  for {
    d <- Seq(2, 3)
    method <- Seq(BcpGraph, QtGraph, ApproxGraph(0.01), UsecGraph, DelaunayGraph)
    if d == 2 || (method != UsecGraph && method != DelaunayGraph)
    core <- Seq(ScanCore, QtCore)
  } test(s"the fused job matches MarkCore.run + ConnCtx.build: $method d=$d $core") {
    // Skewed: dense blobs, sparse noise, so cells range from all-core to
    // none-core and tasks get unequal loads.
    val pts = TestUtil.blobPts(1500, d, numBlobs = 4, sigma = 1.2, extent = 50.0,
      noiseFrac = 0.3, seed = 40L + d)
    val (eps, minPts) = (2.0, 12)
    val sc = spark.sparkContext
    val bcIdx = sc.broadcast(CellIndex.grid(sc.parallelize(pts.toSeq, 4), eps, d))
    val idx = bcIdx.value
    val bcQt = if (core == QtCore) Some(sc.broadcast(MarkCore.buildCellQuadTrees(sc, bcIdx))) else None
    val want = MarkCore.run(sc, bcIdx, minPts, bcQt)
    val bcFlags = sc.broadcast(want)
    try {
      val built = ConnCtx.build(sc, bcIdx, bcFlags, method)
      for (par <- Seq(1, 3)) withClue(s"par=$par: ") {
        val (flags, ctx, lists) = MarkCore.withCtx(sc, bcIdx, minPts, bcQt, method, par)
        assert(flags.toSeq === want.toSeq)
        // The job's tree query against grid's own neighborLists job.
        assert(lists.counts.toSeq === idx.lists.counts.toSeq && lists.nbrs.toSeq === idx.lists.nbrs.toSeq)
        assert(want.count(identity) > 0 && want.count(!_) > 0)
        assert(ctx.coreCount.toSeq === built.coreCount.toSeq)
        for (c <- 0 until idx.numCells) withClue(s"cell $c: ") {
          val cps = (idx.start(c) until idx.start(c + 1)).filter(p => want(idx.ids(p))).toArray
          assert(ctx.coreCount(c) === cps.length)
          if (cps.isEmpty) assert(ctx.coreLo(c) === null && built.coreLo(c) === null)
          else {
            val bb = BBox.of(idx.coords, d, cps, 0, cps.length)
            for (box <- Seq((ctx.coreLo(c), ctx.coreHi(c)), (built.coreLo(c), built.coreHi(c)))) {
              assert(bits(box._1) === bits(bb.lo))
              assert(bits(box._2) === bits(bb.hi))
            }
          }
        }
        method match {
          case UsecGraph =>
            for (c <- 0 until idx.numCells if ctx.coreCount(c) > 0; axis <- 0 to 1) {
              val sorted = idx.pts(c).filter(p => want(p.id.toInt)).sortBy(_.x(axis))
              for (got <- Seq(ctx, built)) {
                val s = if (axis == 0) got.sortedBy0(c) else got.sortedBy1(c)
                assert(s.map(_.id).toSeq === sorted.map(_.id).toSeq, s"cell $c axis $axis")
                assert(s.flatMap(_.x).toSeq === sorted.flatMap(_.x).toSeq, s"cell $c axis $axis")
              }
            }
          case _ => assert(ctx.sortedBy0 === null && ctx.sortedBy1 === null)
        }
        method match {
          case QtGraph | ApproxGraph(_) =>
            val rho = method match { case ApproxGraph(r) => r; case _ => 0.0 }
            val rnd = new SplittableRandom(par)
            val coreCells = (0 until idx.numCells).filter(ctx.coreCount(_) > 0)
            assert(coreCells.forall(c => ctx.coreQt(c) != null && built.coreQt(c) != null))
            // Queries from the cell's own points and its neighbors' points.
            for (_ <- 0 until 300) {
              val c = coreCells(rnd.nextInt(coreCells.length))
              val near = c +: idx.neighbors(c).toSeq
              val h = near(rnd.nextInt(near.length))
              val q = idx.start(h) + rnd.nextInt(idx.size(h))
              val n = ctx.coreQt(c).count(idx.coords, q * d, eps, Int.MaxValue)
              assert(n === built.coreQt(c).count(idx.coords, q * d, eps, Int.MaxValue))
              def within(r: Double) = (idx.start(c) until idx.start(c + 1)).count(p =>
                want(idx.ids(p)) && Dist.leq(idx.coords, p * d, idx.coords, q * d, d, r))
              if (rho == 0.0) assert(n === within(eps), s"cell $c query $q")
              else assert(n >= within(eps) && n <= within(eps * (1 + rho)), s"cell $c query $q")
            }
          case _ => assert(ctx.coreQt === null)
        }
      }
    } finally (Seq(bcIdx, bcFlags) ++ bcQt).foreach(_.destroy())
  }
}
