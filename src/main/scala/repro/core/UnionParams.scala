package repro.core

/** The parameters every instantiation of the framework must produce
  * (§3–§4): overlap sizes for each non-empty subset of joins (singletons
  * are the join sizes), from which cover sizes, the union size and the
  * join-selection distribution follow.
  */
final case class UnionParams(n: Int, overlaps: Map[Set[Int], Double]) {
  def o(s: Set[Int]): Double = overlaps(s)

  /** |J_j| (estimates). */
  lazy val joinSizes: IndexedSeq[Double] = (0 until n).map(j => o(Set(j)))

  /** |J'_j| for the cover in join-index order (§3.1). */
  lazy val coverSizes: IndexedSeq[Double] = KOverlap.coverSizes(n, o).toIndexedSeq

  /** |U| as Σ_j |J'_j| — the value the sampler normalizes by. */
  lazy val unionSize: Double = coverSizes.sum

  /** |U| via the k-overlap decomposition, Eq. 1 (reported in experiments;
    * equals `unionSize` on exact inputs).
    */
  lazy val unionSizeByK: Double = KOverlap.unionSizeByK(n, o)

  /** Join-selection distribution α_j = |J'_j| / |U|. */
  lazy val alphas: IndexedSeq[Double] =
    if (unionSize <= 0) IndexedSeq.fill(n)(1.0 / n) else coverSizes.map(_ / unionSize)

  /** Running sums of `alphas`, which `CoverBook.pick` selects a join by. */
  lazy val cumAlphas: IndexedSeq[Double] = alphas.scanLeft(0.0)(_ + _).tail

  /** Ratios |J_j| / |U| whose error the paper's Fig. 4/5a reports. */
  lazy val ratios: IndexedSeq[Double] = joinSizes.map(_ / unionSize)
}
