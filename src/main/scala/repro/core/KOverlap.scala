package repro.core

/** Pure combinatorics of §4: k-overlap decomposition (Theorem 3), union
  * size from k-overlaps (Eq. 1), and cover sizes by inclusion–exclusion
  * (§3.1). Overlap sizes are supplied as a function over join index sets;
  * singleton sets denote the join sizes themselves.
  */
object KOverlap {

  /** Binomial coefficient, exact for the small n used here (n ≤ ~20). */
  def choose(n: Int, k: Int): Long = {
    if (k < 0 || k > n) 0L
    else (0 until math.min(k, n - k)).foldLeft(1L)((acc, i) => acc * (n - i) / (i + 1))
  }

  /** All subsets of {0..n-1} of size k containing `j`. */
  private def subsetsWith(n: Int, k: Int, j: Int): Iterator[Set[Int]] =
    (0 until n).filter(_ != j).combinations(k - 1).map(_.toSet + j)

  /** Theorem 3: |A_j^k| for k = 1..n, from overlap sizes o(Δ).
    *
    * A_j^k is the set of tuples of join j shared with exactly k−1 other
    * joins. Computed top-down: A_j^n = o(S); then
    * A_j^k = Σ_{Δ∋j,|Δ|=k} o(Δ) − Σ_{r>k} C(r−1,k−1)·A_j^r.
    *
    * With estimated (upper-bound) overlaps the recursion can go negative;
    * each level is floored at 0 — exact inputs never go below it.
    */
  def aOverlaps(n: Int, j: Int, o: Set[Int] => Double): Array[Double] = {
    require(n >= 1 && j >= 0 && j < n)
    val a = Array.fill(n + 1)(0.0) // 1-based in k
    a(n) = o((0 until n).toSet)
    var k = n - 1
    while (k >= 1) {
      val sum = subsetsWith(n, k, j).map(o).sum
      val deduct = (k + 1 to n).map(r => choose(r - 1, k - 1).toDouble * a(r)).sum
      a(k) = sum - deduct
      if (a(k) < 0) a(k) = 0.0
      k -= 1
    }
    a.drop(1) // index k-1 ↦ |A_j^k|
  }

  /** Eq. 1: |U| = Σ_j Σ_k |A_j^k| / k. */
  def unionSizeByK(n: Int, o: Set[Int] => Double): Double =
    (0 until n).map { j =>
      val a = aOverlaps(n, j, o)
      (1 to n).map(k => a(k - 1) / k).sum
    }.sum

  /** Cover sizes |J'_i| = |J_i \ ∪_{j<i} J_j| by inclusion–exclusion over
    * the joins preceding i in the cover order (the input order):
    * |J'_i| = Σ_{Δ ⊆ {0..i−1}} (−1)^{|Δ|} o(Δ ∪ {i}), floored at 0 (only
    * estimated overlaps go below it).
    */
  def coverSizes(n: Int, o: Set[Int] => Double): Array[Double] = {
    val out = Array.fill(n)(0.0)
    var i = 0
    while (i < n) {
      val prior = (0 until i).toSeq
      var acc = 0.0
      for (m <- 0 to i; d <- prior.combinations(m))
        acc += math.pow(-1, m) * o(d.toSet + i)
      out(i) = math.max(0.0, acc)
      i += 1
    }
    out
  }
}
