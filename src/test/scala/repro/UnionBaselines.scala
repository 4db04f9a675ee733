package repro

import repro.core._
import repro.core.join.JoinTupleSampler
import repro.core.union._
import repro.core.walk.JTuple

/** Sampling from the *disjoint* union (Def. 1) is the straightforward
  * two-step sampler: pick join j with probability |J_j|/Σ|J_i|, then an
  * i.i.d. tuple of J_j — no cover, no rejections.
  */
final class DisjointUnionSampler(joins: Seq[JoinSpec], params: UnionParams,
                                 samplers: IndexedSeq[JoinTupleSampler], seed: Long) {
  def sample(count: Int): IndexedSeq[(JTuple, Int)] = {
    val rng = new java.util.Random(seed)
    val tot = params.joinSizes.sum
    val cum = params.joinSizes.map(_ / tot).scanLeft(0.0)(_ + _).tail
    val quota = Array.fill(params.n)(0)
    (0 until count).foreach(_ => quota(CoverBook.pick(cum, rng.nextDouble())) += 1)
    val draws = (0 until params.n).flatMap { j =>
      samplers(j).sample(quota(j), seed + j)._1.map((_, j))
    }
    new scala.util.Random(rng).shuffle(draws).toIndexedSeq
  }
}

/** The §3 baseline union sampler ("union trick"): each pass iterates all
  * joins, independently selects join j with Bernoulli probability
  * |J_j|/|U|, draws one i.i.d. tuple of it, and accepts a value only from
  * the join where it was first observed. Every value u is accepted per
  * pass exactly when its owner join is selected *and* u is drawn —
  * probability (|J_j|/|U|)·(1/|J_j|) = 1/|U| — so the sample is uniform
  * with no cover and no revision, at the price of a high rejection ratio
  * on overlapping joins (the motivation for the non-Bernoulli §3.1
  * selection; compared empirically in the test suite).
  *
  * As in the paper's description, ownership is fixed at first
  * observation; the very first draw of each overlap value is accepted
  * from whichever join raced it, a one-off transient of at most one
  * sample per overlap value (vanishing in frequency as N grows).
  */
final class BernoulliUnionSampler(joins: Seq[JoinSpec], params: UnionParams,
                                  samplers: IndexedSeq[JoinTupleSampler], seed: Long) {
  require(joins.size == params.n && samplers.size == params.n)

  def sample(count: Int): UnionSample = {
    val rng = new java.util.Random(seed)
    val stats = new UnionStats
    val buffers = samplers.map(new DrawBuffer(_, stats, rng.nextLong()))
    val target = scala.collection.mutable.ArrayBuffer.empty[(JTuple, Int)]
    val owner = scala.collection.mutable.HashMap.empty[IndexedSeq[Any], Int]
    val probs = params.joinSizes.map(s => math.min(1.0, s / math.max(params.unionSize, 1e-9)))

    while (target.size < count) {
      var j = 0
      while (j < params.n && target.size < count) {
        if (rng.nextDouble() < probs(j)) {
          val t = buffers(j).pop(32)
          val t1 = System.nanoTime()
          owner.getOrElseUpdate(t.values, j) match {
            case o if o == j => target += ((t, j)); stats.accepted += 1
            case _           => stats.rejectedDup += 1
          }
          stats.bookNs += System.nanoTime() - t1
        }
        j += 1
      }
    }
    UnionSample(target.take(count).toIndexedSeq, stats)
  }
}

object ExactUnionSampling {

  /** Exact uniform sampling from the union that [[FullJoinUnion]]
    * materializes.
    */
  implicit final class Sampler(fju: FullJoinUnion) {

    /** Exact uniform i.i.d. sample (with replacement) from the union. */
    def sampleUnion(count: Int, seed: Long): IndexedSeq[JTuple] = {
      val rows = Rel("__union", fju.unionDf).rows
      val rng = new java.util.Random(seed)
      IndexedSeq.fill(count)(rows((rng.nextLong().abs % rows.length).toInt))
        .map(r => JTuple(r.toSeq.toIndexedSeq, 1.0 / rows.length))
    }
  }
}
