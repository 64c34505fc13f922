package repro.geometry

import org.scalatest.funsuite.AnyFunSuite

import java.util.SplittableRandom

class UnionFindSpec extends AnyFunSuite {

  private val all = (_: Int) => true

  /** `uf.labels` with the labels as a Seq, to compare by value. */
  private def labels(uf: UnionFind, include: Int => Boolean): (Seq[Int], Int) = {
    val (l, k) = uf.labels(include)
    (l.toSeq, k)
  }

  test("singletons start disconnected") {
    val uf = new UnionFind(10)
    assert(labels(uf, all) === ((0 until 10), 10))
  }

  test("union connects and is idempotent") {
    val uf = new UnionFind(5)
    assert(uf.union(0, 1))
    assert(!uf.union(0, 1))
    assert(labels(uf, all) === (Seq(0, 0, 1, 2, 3), 4))
  }

  test("transitivity via chains") {
    val uf = new UnionFind(100)
    (0 until 99).foreach(i => uf.union(i, i + 1))
    assert(labels(uf, all) === (Seq.fill(100)(0), 1))
  }

  test("labels exclude elements and stay dense over the rest") {
    val uf = new UnionFind(6)
    uf.union(0, 3); uf.union(1, 4); uf.union(4, 5)
    // Components {0, 3}, {1, 4, 5} and {2}: without 0, element 1 comes first.
    assert(labels(uf, i => i != 0 && i != 2) === (Seq(-1, 0, -1, 1, 0, 0), 2))
    assert(labels(uf, _ => false) === (Seq.fill(6)(-1), 0))
  }

  test("matches brute-force components on random unions") {
    val rnd = new SplittableRandom(13)
    val n = 60
    for (_ <- 0 until 20) {
      val uf = new UnionFind(n)
      val adj = Array.fill(n)(scala.collection.mutable.Set[Int]())
      for (_ <- 0 until 40) {
        val a = rnd.nextInt(n); val b = rnd.nextInt(n)
        uf.union(a, b)
        adj(a) += b; adj(b) += a
      }
      // Brute-force BFS labeling, components numbered by their first element.
      val label = Array.fill(n)(-1)
      var next = 0
      for (s <- 0 until n if label(s) < 0) {
        label(s) = next
        val q = scala.collection.mutable.ArrayDeque(s)
        while (q.nonEmpty) {
          val u = q.removeHead()
          adj(u).foreach { v => if (label(v) < 0) { label(v) = next; q += v } }
        }
        next += 1
      }
      assert(labels(uf, all) === (label.toSeq, next))
    }
  }
}
