package repro.geometry

/** Array-based union-find with union by rank and path halving.
  *
  * The paper uses a lock-free concurrent union-find shared by all threads;
  * here each structure is sequential. ClusterCore (see
  * [[repro.core.ClusterCore]]) keeps one over the cell graph on the driver
  * and one more per Spark task per round, over the round snapshot's
  * component ids, so that a link found in a task prunes that task's later
  * queries of the round.
  * Only O(#cells) metadata passes through them; the expensive connectivity
  * *queries* run distributed.
  */
final class UnionFind(n: Int) extends Serializable {
  private val parent = Array.range(0, n)
  private val rank   = new Array[Byte](n)

  /** Representative of `i`'s component, with path halving. */
  def find(i: Int): Int = {
    var x = i
    while (parent(x) != x) {
      parent(x) = parent(parent(x))
      x = parent(x)
    }
    x
  }

  /** Union the components of `a` and `b`; returns true if they were distinct. */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) false
    else {
      if (rank(ra) < rank(rb)) parent(ra) = rb
      else if (rank(ra) > rank(rb)) parent(rb) = ra
      else { parent(rb) = ra; rank(ra) = (rank(ra) + 1).toByte }
      true
    }
  }

  /** Every element's representative, as `find` gives it. */
  def roots(): Array[Int] = {
    val out = new Array[Int](n)
    var i = 0
    while (i < n) { out(i) = find(i); i += 1 }
    out
  }

  /** Dense component labels (paper §4.4, union-find roots → cluster ids):
    * element i gets its component's number in [0, k), components numbered
    * in order of their first included element, or −1 when `include(i)` is
    * false. Returns the labels and k. */
  def labels(include: Int => Boolean): (Array[Int], Int) = {
    val ofRoot = Array.fill(n)(-1)
    val out = Array.fill(n)(-1)
    var k = 0
    var i = 0
    while (i < n) {
      if (include(i)) {
        val r = find(i)
        if (ofRoot(r) < 0) { ofRoot(r) = k; k += 1 }
        out(i) = ofRoot(r)
      }
      i += 1
    }
    (out, k)
  }
}
