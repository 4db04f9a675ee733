package repro.core.walk

import repro.core._

/** One successfully joined walk: the result tuple's values aligned to the
  * workload's canonical column order, and its walk probability
  * p(t) = 1/|R_root| · Π 1/d_i (§6.1).
  *
  * `values` is the tuple's identity, the value u = t.val of Example 3: the
  * union samplers compare tuples by it.
  */
final case class JTuple(values: IndexedSeq[Any], p: Double) {
  /** The fields' string forms joined by `␞`, built on each call. A
    * display form, not an identity: `null` and `"null"` share it.
    */
  def key: String = values.map(String.valueOf).mkString("␞")
}

/** A batch of walks: `requested` walks were started, `samples` succeeded
  * (failed walks contribute estimator terms of 0).
  */
final case class WalkBatch(samples: IndexedSeq[JTuple], requested: Int) {
  def failures: Int = requested - samples.size

  /** Horvitz–Thompson estimate of |J|: mean over all walks of 1/p (0 for
    * failures) — T_n(u) of §6.
    */
  def sizeEstimate: Double =
    if (requested == 0) 0.0 else samples.map(t => 1.0 / t.p).sum / requested
}

/** Welford accumulator for the online HT estimator of §6.1: mean is the
  * running |J| estimate (updated exactly by the paper's incremental
  * formula), variance feeds the confidence interval of Eq. 3.
  */
final class WalkStats {
  private var n0 = 0
  private var mean0 = 0.0
  private var m2 = 0.0

  /** Record a walk with estimator term f = 1/p(t), or 0 for a failure. */
  def add(f: Double): Unit = {
    n0 += 1
    val d = f - mean0
    mean0 += d / n0 // |J|_{S∪t0} = |J|_S + (f − |J|_S)/(m+1)
    m2 += d * (f - mean0)
  }

  def n: Int = n0
  def mean: Double = mean0
  def variance: Double = if (n0 < 2) 0.0 else m2 / (n0 - 1)

  /** Half-width of the level-z confidence interval, z·σ/√n. */
  def ciHalfWidth(z: Double = 1.96): Double =
    if (n0 == 0) Double.PositiveInfinity else z * math.sqrt(variance / n0)
}

object WalkStats {
  /** Statistics of a batch: a term 1/p per success, then a 0 per failure. */
  def of(b: WalkBatch): WalkStats = {
    val s = new WalkStats
    b.samples.foreach(t => s.add(1.0 / t.p))
    (0 until b.failures).foreach(_ => s.add(0.0))
    s
  }
}

/** Wander join (§6.1) over the join's driver-side index
  * ([[JoinSpec.index]]): walks and membership probes are hash lookups and
  * start no Spark job once the index exists.
  */
object WanderJoin {

  /** Canonical (sorted) column order shared by all joins of a workload. */
  def canonCols(join: JoinSpec): Seq[String] = join.outputCols.sorted

  /** Run `n` random walks over `join`, seeded from `java.util.Random(seed)`. */
  def walkBatch(join: JoinSpec, n: Int, seed: Long): WalkBatch = {
    val rng = new java.util.Random(seed)
    WalkBatch(Iterator.fill(n)(join.index.walk(rng)).flatten.toIndexedSeq, n)
  }

  /** Which of `tuples` (canonical values of tuples of a join of the same
    * workload) are tuples of `join`? One flag per tuple, in order.
    */
  def membership(join: JoinSpec, tuples: Seq[JTuple]): IndexedSeq[Boolean] =
    tuples.map(t => join.index.contains(t.values)).toIndexedSeq
}
