package repro.core.union

import repro.core._
import repro.core.join.JoinTupleSampler
import repro.core.walk.JTuple

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
    val buffers = samplers.map(new DrawBuffer(_, stats, seed))
    val target = scala.collection.mutable.ArrayBuffer.empty[(JTuple, Int)]
    val owner = scala.collection.mutable.HashMap.empty[String, Int]
    val probs = params.joinSizes.map(s => math.min(1.0, s / math.max(params.unionSize, 1e-9)))

    while (target.size < count) {
      var j = 0
      while (j < params.n && target.size < count) {
        if (rng.nextDouble() < probs(j)) {
          val t = buffers(j).pop(32)
          val t1 = System.nanoTime()
          owner.getOrElseUpdate(t.key, j) match {
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
