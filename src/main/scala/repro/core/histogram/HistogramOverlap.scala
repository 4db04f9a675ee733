package repro.core.histogram

import org.apache.spark.sql.functions._
import repro.core._
import repro.core.stats.DegreeStats

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

  /** Upper bound of |O_Δ| for one Δ of aligned chain forms.
    *
    * The K recursion is valid from either end of the chain; each
    * orientation is an upper bound, so we take the tighter of the two.
    * (The forward pass discriminates overlap living in the *first*
    * relations' value histograms, the reverse pass in the *last* — e.g.
    * UQ1's per-join lineitems are only visible to the reverse pass.)
    */
  def overlapBound(delta: Seq[ChainForm]): Double = {
    val all = Seq(delta.indices)
    math.min(directionTable(delta, all)(all.head), directionTable(delta.map(_.reversed), all)(all.head))
  }

  /** Full HISTOGRAM-BASED parameter estimation for a union workload.
    *
    * Structurally-aligned chain unions (the §5.1 base case) use their
    * relations directly; anything else is rewritten on the best standard
    * template via the splitting method. Then |O_Δ| is bounded for every
    * non-empty Δ ⊆ S (singletons = extended-Olken join-size bounds), the
    * tighter of the two orientations as in [[overlapBound]].
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
    * into `chains`).
    *
    * The sweep shares work: the per-join first-hop degree products are
    * outer-joined on the hop value *once*, every subset's K(1) is one
    * aggregation over that cached frame, which is unpersisted after the
    * sweep; the K(i) multipliers come from the memoized degree statistics.
    */
  private def directionTable(chains: Seq[ChainForm], subsets: Seq[Seq[Int]]): Map[Seq[Int], Double] = {
    require(chains.forall(_.hopAttrs == chains.head.hopAttrs), "chains must be aligned")
    val hops = chains.head.hops
    def fakeK1(idx: Seq[Int]): Double = idx.map(i => chains(i).sizes.head.toDouble).min
    if (hops == 0) return subsets.map(idx => idx -> fakeK1(idx)).toMap

    val attr = chains.head.hopAttrs(0)
    // Per join: (v, d1(v)·d2(v)); a fake hop contributes d(v) of the shared
    // source alone (the recombination does not multiply).
    val joinedProds: Option[org.apache.spark.sql.DataFrame] =
      if (chains.forall(_.isFake(0))) None
      else Some {
        val prods = chains.zipWithIndex.map { case (c, j) =>
          if (c.isFake(0))
            DegreeStats.histogram(c.dfs(0), attr).withColumnRenamed("deg", s"__p$j")
          else {
            val h1 = DegreeStats.histogram(c.dfs(0), attr).withColumnRenamed("deg", "__d1")
            val h2 = DegreeStats.histogram(c.dfs(1), attr).withColumnRenamed("deg", "__d2")
            h1.join(h2, attr).select(col(attr), (col("__d1") * col("__d2")).as(s"__p$j"))
          }
        }
        val d = prods.reduceLeft((l, r) => l.join(r, Seq(attr), "full_outer")).cache()
        d.count()
        d
      }
    // per-(join, hop) multiplier M_{j,i}, memoized via DegreeStats
    def mult(j: Int, i: Int): Double = {
      val c = chains(j)
      if (c.isFake(i)) 1.0 else DegreeStats.maxDegree(c.dfs(i + 1), c.hopAttrs(i)).toDouble
    }

    val table = subsets.map { idx =>
      val k1 = joinedProds match {
        case None => fakeK1(idx)
        case Some(d) =>
          val cols = idx.map(j => col(s"__p$j"))
          val m = if (cols.size == 1) cols.head else least(cols: _*)
          val valid = cols.map(_.isNotNull).reduceLeft(_ && _)
          val r = d.agg(sum(when(valid, m).otherwise(lit(0L)))).head
          if (r.isNullAt(0)) 0.0 else r.getLong(0).toDouble
      }
      idx -> (1 until hops).foldLeft(k1)((acc, i) => acc * idx.map(j => mult(j, i)).min)
    }.toMap
    joinedProds.foreach(_.unpersist())
    table
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
