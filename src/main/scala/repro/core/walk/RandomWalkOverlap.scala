package repro.core.walk

/** §6.2: overlap estimation from random-walk samples.
  *
  * Fixing an anchor join j ∈ Δ with walk samples S_j, the HT-weighted
  * membership fraction
  *   p̂_Δ = Σ_{t ∈ S_j, t ∈ J_i ∀i∈Δ} 1/p(t)  /  Σ_{t ∈ S_j} 1/p(t)
  * realizes the paper's S'_j construction (each t counted 1/p(t) times,
  * restoring the distribution of J_j), and Eq. 2 gives
  *   |O_Δ| = |J_j| · p̂_Δ.
  */
object RandomWalkOverlap {

  /** p̂_Δ for anchor join `j`: `inAll(k)` answers whether the k-th sample
    * belongs to every other join of Δ (from the membership probes).
    */
  def membershipFraction(samples: IndexedSeq[JTuple], inAll: Int => Boolean): Double = {
    val tot = samples.map(t => 1.0 / t.p).sum
    if (tot == 0) 0.0
    else samples.indices.filter(inAll).map(k => 1.0 / samples(k).p).sum / tot
  }

  /** Eq. 2. */
  def overlapEstimate(joinSize: Double, pHat: Double): Double = joinSize * pHat

  /** Eq. 3 variance of |O_Δ| from the anchor's walk statistics: with
    * T_n(u), T_{n,2}(u) the HT mean/variance of |J_j| and p̂ the binomial
    * membership fraction,
    *   σ² = T_{n,2}·p̂(1−p̂) + T_{n,2}·p̂² + T_n²·p̂(1−p̂)
    * (product-of-independent-estimators variance).
    */
  def overlapVariance(stats: WalkStats, pHat: Double): Double = {
    val t2 = stats.variance
    val t1 = stats.mean
    t2 * pHat * (1 - pHat) + t2 * pHat * pHat + t1 * t1 * pHat * (1 - pHat)
  }

  /** Half-width of the level-z confidence interval on |O_Δ|. */
  def ciHalfWidth(stats: WalkStats, pHat: Double, z: Double = 1.96): Double =
    if (stats.n == 0) Double.PositiveInfinity
    else z * math.sqrt(overlapVariance(stats, pHat) / stats.n)
}
