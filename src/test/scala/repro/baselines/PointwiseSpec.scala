package repro.baselines

import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestUtil}
import repro.core.Par
import repro.geometry.KDTree

/** The local-DBSCAN skeleton both pointwise baselines share. */
class PointwiseSpec extends SparkSpec {

  test("cluster computes each partition of its input once across its two jobs") {
    val sc = spark.sparkContext
    val pts = TestUtil.blobPts(400, 2, 4, 2.0, 40.0, 0.2, 11L)
    val tree = KDTree.build(pts.sortBy(_.id))
    // One element per partition: the tree over all points, and the partition's points.
    val computed = sc.longAccumulator("partition elements computed")
    val parts = sc.parallelize(pts.toSeq, 4).mapPartitions { it =>
      computed.add(1)
      Iterator.single((tree, it.toArray))
    }
    val got = Par.sharing(sc)(Pointwise.cluster(_, pts.length, 3.0, 5, parts))
    assert(computed.value === 4)
    assert(parts.getStorageLevel === StorageLevel.NONE, "left persisted")
    TestUtil.assertSameClustering(got, NaiveDBSCAN.run(pts, 3.0, 5))
  }
}
