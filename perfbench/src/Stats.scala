package perfbench

/** Order statistics as Python's `statistics.quantiles(xs, n=4)` computes
  * them (its default, "exclusive" method). */
object Stats {
  def median(xs: Iterable[Double]): Double = quartiles(xs)._2

  def medianL(xs: Seq[Long]): Long = {
    val s = xs.sorted
    s(s.length / 2)
  }

  def quartiles(xs: Iterable[Double]): (Double, Double, Double) = {
    require(xs.nonEmpty, "no samples")
    val s = xs.toIndexedSeq.sorted
    if (s.length == 1) return (s(0), s(0), s(0))
    val m = s.length + 1
    def q(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), s.length - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(2), q(3))
  }
}
