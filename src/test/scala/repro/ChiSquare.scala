package repro

/** Pearson's χ² test of observed key counts against the uniform law. */
object ChiSquare {

  /** The statistic of `total` draws over `support` equally likely keys;
    * keys never drawn (absent from `counts`) contribute their expectation.
    */
  def statistic(counts: Map[_, Int], support: Int, total: Int): Double = {
    val exp = total.toDouble / support
    counts.values.map(c => (c - exp) * (c - exp) / exp).sum + (support - counts.size) * exp
  }

  /** The 0.999 quantile of χ² with `df` degrees of freedom, by the
    * Wilson–Hilferty approximation (within 0.5% of the exact value for
    * df ≥ 10).
    */
  def quantile999(df: Int): Double = {
    val z = 3.090232306167813 // the standard normal's 0.999 quantile
    val a = 2.0 / (9.0 * df)
    df * math.pow(1 - a + z * math.sqrt(a), 3)
  }
}
