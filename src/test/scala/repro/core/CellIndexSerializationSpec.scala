package repro.core

import repro.{SparkSpec, TestUtil}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

/** Java serialization of the index's flat fields (the cell-ordered ids and
  * coordinates, cell offsets, tight boxes and CSR neighbor lists) must
  * round-trip it exactly, and compactly — every broadcast depends on it. */
class CellIndexSerializationSpec extends SparkSpec {

  private def roundTrip(idx: CellIndex): CellIndex = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(idx); oos.close()
    new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray))
      .readObject().asInstanceOf[CellIndex]
  }

  for (d <- Seq(2, 3, 7)) test(s"round-trip preserves every field d=$d") {
    val pts = TestUtil.blobPts(300, d, 3, 2.0, 30.0, 0.2, seed = d)
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 3), 4.0, d)
    val back = roundTrip(idx)
    assert(back.eps === idx.eps)
    assert(back.cellSide === idx.cellSide)
    assert(back.d === idx.d)
    assert(back.n === idx.n)
    assert(back.numCells === idx.numCells)
    for (c <- 0 until idx.numCells) {
      assert(back.tightLo(c).toSeq === idx.tightLo(c).toSeq)
      assert(back.tightHi(c).toSeq === idx.tightHi(c).toSeq)
      assert(back.neighbors(c).toSeq === idx.neighbors(c).toSeq)
      assert(back.pts(c).map(_.id).toSeq === idx.pts(c).map(_.id).toSeq)
      for ((p, q) <- back.pts(c).zip(idx.pts(c)))
        assert(p.x.toSeq === q.x.toSeq)
    }
  }

  test("round-trip of a box-method 2D index") {
    val pts = TestUtil.blobPts(200, 2, 2, 2.0, 30.0, 0.2, 9L)
    val idx = CellIndex.box2d(spark.sparkContext.parallelize(pts.toSeq, 2), 3.0)
    val back = roundTrip(idx)
    assert(back.numCells === idx.numCells)
    def allIds(i: CellIndex) = (0 until i.numCells).flatMap(i.pts).map(_.id).sorted
    assert(allIds(back) === allIds(idx))
  }

  test("packed form is much smaller than naive object graphs would be") {
    val pts = TestUtil.uniformPts(5000, 3, 100.0, 5L)
    val idx = CellIndex.grid(spark.sparkContext.parallelize(pts.toSeq, 4), 5.0, 3)
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(idx); oos.close()
    // 5000 points * 3 dims * 8 bytes = 120 KB of coordinates; the packed
    // form should stay within a small constant factor of that.
    assert(bos.size() < 600 * 1024, s"serialized ${bos.size()} bytes")
  }
}
