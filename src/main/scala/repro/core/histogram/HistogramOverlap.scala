package repro.core.histogram

import repro.core._

/** Theorem 4: histogram-based upper bound on the overlap |O_Δ| of a set of
  * joins rewritten as aligned chains (§5).
  *
  * The K recursion over the chain:
  *   K(1) = Σ_v min_j d(v, P_{j,1}) · d(v, P_{j,2})     (real first hop)
  *   K(1) = min_j |R_{j,1}|                              (fake first hop)
  *   K(i) = K(i−1) · min_j M_{j,i}
  * where M_{j,i} = 1 for a fake hop (both pieces split from the same
  * original relation) and the max hop attribute degree of the next piece
  * otherwise.
  *
  * With |Δ| = 1 the mins disappear and the recursion reduces to the
  * extended-Olken join-size bound of §3.2, so the same code yields the
  * HISTOGRAM-BASED estimate of every parameter the sampler needs.
  */
object HistogramOverlap {

  /** Full HISTOGRAM-BASED parameter estimation for a union workload.
    *
    * Structurally-aligned chain unions (the §5.1 base case) use their
    * relations directly; anything else is rewritten on the best standard
    * template via the splitting method. Then |O_Δ| is bounded for every
    * non-empty Δ ⊆ S (singletons = extended-Olken join-size bounds).
    *
    * The K recursion is valid from either end of the chain; each
    * orientation is an upper bound, so we take the tighter of the two.
    * (The forward pass discriminates overlap living in the *first*
    * relations' value histograms, the reverse pass in the *last* — e.g.
    * UQ1's per-join lineitems are only visible to the reverse pass.) Both
    * orientations read the pieces' key groups ([[Rel.groups]]), built once
    * per (relation, attribute).
    */
  def estimate(joins: Seq[JoinSpec]): UnionParams = {
    val chains: Seq[ChainForm] =
      if (ChainForm.aligned(joins)) joins.map(j => ChainForm.direct(j.asInstanceOf[ChainJoin]))
      else {
        val template = Splitter.bestTemplate(joins)
        joins.map(Splitter.split(_, template))
      }
    val n = joins.size
    val subsets = (1 to n).flatMap(k => (0 until n).combinations(k))
    val fwd = directionTable(chains, subsets)
    val rev = directionTable(chains.map(_.reversed), subsets)
    val overlaps = subsets.map(idx => idx.toSet -> math.min(fwd(idx), rev(idx))).toMap
    UnionParams(n, monotonize(n, overlaps))
  }

  /** The K recursion in the orientation given, for each subset Δ (indices
    * into `chains`): K(1) sums the per-value minimum of the joins'
    * first-hop degree products, and M_{j,i} is the largest degree of the
    * hop attribute in the next piece. A degree is a key group's size.
    */
  private def directionTable(chains: Seq[ChainForm], subsets: Seq[Seq[Int]]): Map[Seq[Int], Double] = {
    require(chains.forall(_.hopAttrs == chains.head.hopAttrs), "chains must be aligned")
    val hops = chains.head.hops
    def fakeK1(idx: Seq[Int]): Double = idx.map(i => chains(i).rels.head.count.toDouble).min
    if (hops == 0) return subsets.map(idx => idx -> fakeK1(idx)).toMap

    val attr = chains.head.hopAttrs(0)
    // Per join: v ↦ d1(v)·d2(v); a fake hop contributes d(v) of the shared
    // source alone (the recombination does not multiply).
    val prods: Seq[Map[Any, Double]] =
      if (chains.forall(_.isFake(0))) Nil
      else chains.map { c =>
        val g1 = c.rels(0).groups(Seq(attr))
        if (c.isFake(0)) g1.map { case (v, ids) => v -> ids.length.toDouble }
        else {
          val g2 = c.rels(1).groups(Seq(attr))
          g1.collect { case (v, ids) if g2.contains(v) => v -> ids.length.toDouble * g2(v).length }
        }
      }
    def k1(idx: Seq[Int]): Double =
      // a lone fake first hop is |R_{j,1}|: its rows with a null hop value
      // recombine too
      if (prods.isEmpty || (idx.size == 1 && chains(idx.head).isFake(0))) fakeK1(idx)
      else {
        val ps = idx.map(prods)
        ps.head.iterator.map { case (v, p) => (p +: ps.tail.map(_.getOrElse(v, 0.0))).min }.sum
      }
    def mult(j: Int, i: Int): Double = {
      val c = chains(j)
      if (c.isFake(i)) 1.0
      else c.rels(i + 1).maxDegree(Seq(c.hopAttrs(i))).toDouble
    }
    subsets.map { idx =>
      idx -> (1 until hops).foldLeft(k1(idx))((acc, i) => acc * idx.map(j => mult(j, i)).min)
    }.toMap
  }

  /** Enforce O_Δ ≤ min_{Δ'⊂Δ} O_Δ' (a superset overlap can never exceed a
    * subset's) — independent per-Δ bounds may violate this, which would
    * send the inclusion–exclusion cover sizes negative.
    */
  private[repro] def monotonize(n: Int, o: Map[Set[Int], Double]): Map[Set[Int], Double] = {
    val out = scala.collection.mutable.Map.empty[Set[Int], Double]
    for (k <- 1 to n; idx <- (0 until n).combinations(k)) {
      val d = idx.toSet
      val cap =
        if (k == 1) Double.MaxValue
        else d.subsets(k - 1).map(out).min
      out(d) = math.min(o(d), cap)
    }
    out.toMap
  }
}
