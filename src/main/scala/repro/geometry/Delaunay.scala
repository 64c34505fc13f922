package repro.geometry

import scala.collection.mutable

/** 2D Delaunay triangulation via incremental Bowyer–Watson insertion.
  *
  * The paper (§4.4) uses PBBS's parallel randomized incremental DT; here the
  * triangulation itself is computed on the driver (it runs over *core points
  * only* and is one of the six 2D cell-graph variants), and so is the
  * O(edges) filter that keeps the short cross-cell edges. Points are
  * inserted in Morton (Z-curve) order so the walk-based point location is
  * O(1) amortized, giving near-O(n log n) behaviour in practice.
  *
  * Output: the set of undirected Delaunay edges between input points
  * (super-triangle artifacts removed). Exact duplicates are skipped — this
  * does not affect the DBSCAN cell graph, since a duplicate core point adds
  * no new connectivity.
  */
final class Delaunay(px: Array[Double], py: Array[Double]) {
  require(px.length == py.length)
  private val n = px.length

  // Triangle soup: 3 vertex ids + 3 neighbor triangle ids per triangle.
  // Vertex ids n, n+1, n+2 are the super-triangle. nb(3t+e) is the triangle
  // across the edge opposite vertex v(3t+e); -1 = outside.
  private val v  = new mutable.ArrayBuffer[Int]()
  private val nb = new mutable.ArrayBuffer[Int]()
  private val dead = new mutable.ArrayBuffer[Boolean]()

  private val ax = new Array[Double](n + 3)
  private val ay = new Array[Double](n + 3)

  private def orient(a: Int, b: Int, c: Int): Double =
    (ax(b) - ax(a)) * (ay(c) - ay(a)) - (ay(b) - ay(a)) * (ax(c) - ax(a))

  /** > 0 iff point p lies inside the circumcircle of CCW triangle (a,b,c). */
  private def inCircle(a: Int, b: Int, c: Int, p: Int): Double = {
    val adx = ax(a) - ax(p); val ady = ay(a) - ay(p)
    val bdx = ax(b) - ax(p); val bdy = ay(b) - ay(p)
    val cdx = ax(c) - ax(p); val cdy = ay(c) - ay(p)
    val ad = adx * adx + ady * ady
    val bd = bdx * bdx + bdy * bdy
    val cd = cdx * cdx + cdy * cdy
    adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx) + ad * (bdx * cdy - bdy * cdx)
  }

  private def newTriangle(a: Int, b: Int, c: Int): Int = {
    val t = v.length / 3
    v += a; v += b; v += c
    nb += -1; nb += -1; nb += -1
    dead += false
    t
  }

  /** Walk from triangle `start` to a triangle containing point p. */
  private def locate(p: Int, start: Int): Int = {
    var t = start
    var steps = 0
    val maxSteps = 4 * (v.length / 3) + 16
    while (steps < maxSteps) {
      val a = v(3 * t); val b = v(3 * t + 1); val c = v(3 * t + 2)
      // Move across the first edge that strictly separates p from t.
      if (orient(a, b, p) < 0) { t = nb(3 * t + 2); require(t >= 0) }
      else if (orient(b, c, p) < 0) { t = nb(3 * t); require(t >= 0) }
      else if (orient(c, a, p) < 0) { t = nb(3 * t + 1); require(t >= 0) }
      else return t
      steps += 1
    }
    // Fallback: linear scan (degenerate walks are possible with collinear data).
    var i = 0
    while (i < v.length / 3) {
      if (!dead(i)) {
        val a = v(3 * i); val b = v(3 * i + 1); val c = v(3 * i + 2)
        if (orient(a, b, p) >= 0 && orient(b, c, p) >= 0 && orient(c, a, p) >= 0) return i
      }
      i += 1
    }
    throw new IllegalStateException("Delaunay.locate: point not found in any triangle")
  }

  /** Morton (Z-order) interleave of two 16-bit grid coordinates. */
  private def morton(ix: Int, iy: Int): Long = {
    var r = 0L; var b = 0
    while (b < 16) {
      r |= ((ix >> b) & 1L) << (2 * b)
      r |= ((iy >> b) & 1L) << (2 * b + 1)
      b += 1
    }
    r
  }

  /** Run the triangulation; returns undirected edges (i, j), i < j, between
    * input points. */
  def edges(): Array[(Int, Int)] = {
    if (n < 2) return Array.empty
    System.arraycopy(px, 0, ax, 0, n)
    System.arraycopy(py, 0, ay, 0, n)
    var minX = px(0); var maxX = px(0); var minY = py(0); var maxY = py(0)
    var i = 1
    while (i < n) {
      if (px(i) < minX) minX = px(i); if (px(i) > maxX) maxX = px(i)
      if (py(i) < minY) minY = py(i); if (py(i) > maxY) maxY = py(i)
      i += 1
    }
    val span = math.max(math.max(maxX - minX, maxY - minY), 1e-9)
    val cx = (minX + maxX) / 2; val cy = (minY + maxY) / 2
    val big = 64.0 * span
    ax(n) = cx - big; ay(n) = cy - big
    ax(n + 1) = cx + big; ay(n + 1) = cy - big
    ax(n + 2) = cx; ay(n + 2) = cy + big

    val rootT = newTriangle(n, n + 1, n + 2) // CCW by construction

    // Morton-order insertion for walk locality.
    val order = (0 until n).sortBy { k =>
      val gx = ((px(k) - minX) / span * 65535.0).toInt
      val gy = ((py(k) - minY) / span * 65535.0).toInt
      morton(gx, gy)
    }

    val seen = new mutable.HashSet[(Double, Double)]()
    var last = rootT
    val badList = new mutable.ArrayBuffer[Int]()
    val stack = new mutable.ArrayBuffer[Int]()
    val badSet = new mutable.HashSet[Int]()

    for (p <- order) {
      if (seen.add((px(p), py(p)))) {
        val t0 = locate(p, last)
        // Collect the cavity: BFS over triangles whose circumcircle contains p.
        badList.clear(); stack.clear(); badSet.clear()
        stack += t0; badSet += t0
        while (stack.nonEmpty) {
          val t = stack.remove(stack.length - 1)
          badList += t
          var e = 0
          while (e < 3) {
            val u = nb(3 * t + e)
            if (u >= 0 && !badSet.contains(u) &&
                inCircle(v(3 * u), v(3 * u + 1), v(3 * u + 2), p) > 0) {
              badSet += u; stack += u
            }
            e += 1
          }
        }
        // Boundary edges of the cavity, in CCW order of their triangles:
        // edge opposite vertex e of triangle t is (v(e+1), v(e+2)).
        val bndA = new mutable.ArrayBuffer[Int]()
        val bndB = new mutable.ArrayBuffer[Int]()
        val bndOut = new mutable.ArrayBuffer[Int]()
        for (t <- badList) {
          var e = 0
          while (e < 3) {
            val u = nb(3 * t + e)
            if (u < 0 || !badSet.contains(u)) {
              bndA += v(3 * t + (e + 1) % 3)
              bndB += v(3 * t + (e + 2) % 3)
              bndOut += u
            }
            e += 1
          }
        }
        for (t <- badList) dead(t) = true
        // Retriangulate: fan of (p, a, b) over boundary edges.
        val startMap = new mutable.HashMap[Int, Int]() // boundary edge start a -> new tri
        val newTris = new Array[Int](bndA.length)
        var k = 0
        while (k < bndA.length) {
          val t = newTriangle(p, bndA(k), bndB(k))
          newTris(k) = t
          startMap(bndA(k)) = t
          // Link across (a, b) to the outside triangle.
          nb(3 * t) = bndOut(k) // edge opposite p is (a, b)
          val out = bndOut(k)
          if (out >= 0) {
            // In `out`, the edge (b, a) is opposite some vertex; find it.
            var e = 0
            var done = false
            while (e < 3 && !done) {
              val oa = v(3 * out + (e + 1) % 3); val ob = v(3 * out + (e + 2) % 3)
              if ((oa == bndB(k) && ob == bndA(k)) || (oa == bndA(k) && ob == bndB(k))) {
                nb(3 * out + e) = t; done = true
              }
              e += 1
            }
            require(done, "Delaunay: failed to relink cavity boundary")
          }
          k += 1
        }
        // Link new triangles to each other around the fan: triangle with edge
        // (p,a,b) meets the triangle starting at b across edge opposite a.
        k = 0
        while (k < bndA.length) {
          val t = newTris(k)
          val next = startMap(bndB(k)) // triangle (p, b, c)
          nb(3 * t + 1) = next         // edge opposite a = (b, p): neighbor is `next`
          nb(3 * next + 2) = t         // in next, edge opposite its third vertex? see below
          k += 1
        }
        last = newTris(0)
      }
    }

    // Emit surviving edges between real points.
    val out = new mutable.HashSet[(Int, Int)]()
    var t = 0
    while (t < v.length / 3) {
      if (!dead(t)) {
        var e = 0
        while (e < 3) {
          val a = v(3 * t + (e + 1) % 3); val b = v(3 * t + (e + 2) % 3)
          if (a < n && b < n) out += ((math.min(a, b), math.max(a, b)))
          e += 1
        }
      }
      t += 1
    }
    out.toArray
  }
}
