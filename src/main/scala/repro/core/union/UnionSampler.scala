package repro.core.union

import repro.core._
import repro.core.join._
import repro.core.walk.JTuple

/** Counters and timers of one union-sampling run, feeding the paper's
  * runtime-breakdown experiment (Fig. 5f–h): how much work went into
  * parameters, accepted answers and rejected answers.
  */
class UnionStats {
  var drawNs: Long = 0            // time inside single-join samplers
  var bookNs: Long = 0            // accept/reject/revision bookkeeping
  var joinDraws: Int = 0          // ψ — tuples obtained from join subroutines
  var accepted: Int = 0
  var rejectedDup: Int = 0        // duplicates owned by an earlier join (line 8)
  var revisions: Int = 0          // line 10-12 revisions
  var revisionRemoved: Int = 0    // tuples dropped from T by revisions
  var walkAttempts: Int = 0
  var walkFailures: Int = 0
  var eoRejected: Int = 0         // walk tuples rejected by the Olken test
  var redrawGiveUps: Int = 0      // redraw loops that hit CoverBook.MaxRedraws

  def drawMs: Long = drawNs / 1000000
  def bookMs: Long = bookNs / 1000000

  /** Sampling-phase time attributed to rejected work, proportionally to
    * the rejected share of draw attempts.
    */
  def rejectedMs: Long = {
    val att = math.max(1, walkAttempts + rejectedDup)
    val rej = walkFailures + eoRejected + rejectedDup
    (drawMs + bookMs) * rej / att
  }
  def acceptedMs: Long = drawMs + bookMs - rejectedMs
}

/** The sample: tuples with the join that produced them, plus run stats. */
final case class UnionSample(tuples: IndexedSeq[(JTuple, Int)], stats: UnionStats)

/** Per-join buffer of pre-drawn i.i.d. tuples: popping sequentially is
  * distributionally identical to drawing one-at-a-time, so the union
  * sampler can consume single draws while the join sampler works in
  * batches. Each refill's tuples and [[DrawStats]] go to `onRefill` before
  * the first of them is popped (Algorithm 2 records its walks there). Each
  * refill is seeded by the next draw of `java.util.Random(seed)`, so
  * buffers given different seeds share no refill stream.
  */
final class DrawBuffer(sampler: JoinTupleSampler, stats: UnionStats, seed: Long,
                       onRefill: (IndexedSeq[JTuple], DrawStats) => Unit = (_, _) => ()) {
  private val buf = scala.collection.mutable.Queue.empty[JTuple]
  private val seeds = new java.util.Random(seed)

  def pop(chunk: Int): JTuple = {
    if (buf.isEmpty) {
      val t0 = System.nanoTime()
      val (ts, ds) = sampler.sample(chunk, seeds.nextLong())
      stats.drawNs += System.nanoTime() - t0
      stats.joinDraws += ts.size
      stats.walkAttempts += ds.walkAttempts
      stats.walkFailures += ds.walkFailures
      stats.eoRejected += ds.rejected
      onRefill(ts, ds)
      buf ++= ts
    }
    buf.dequeue()
  }
}

/** Algorithm 1 — set-union sampling with non-Bernoulli join selection.
  *
  * Each iteration selects join j with probability α_j = |J'_j|/|U| from
  * the cover implied by `params` and draws i.i.d. tuples from J_j *until
  * one is accepted*, which makes the accepted tuple uniform over the
  * not-yet-owned part of J_j — the sampled realization of the cover J'_j.
  * The accept / reject / revise bookkeeping is [[CoverBook]]'s.
  *
  * Draws are buffered per join ([[DrawBuffer]]) so the join samplers draw
  * in batches while the bookkeeping consumes one tuple at a time. Each
  * join's buffer is seeded by a draw of the sampler's generator: joins
  * seeded alike would draw their k-th tuples from the same uniforms.
  */
final class UnionSampler(joins: Seq[JoinSpec], params: UnionParams,
                         samplers: IndexedSeq[JoinTupleSampler], seed: Long) {
  require(joins.size == params.n && samplers.size == params.n)

  /** Precompute per-join weights/bounds (warm-up-phase work). */
  def prepare(): Unit = samplers.foreach(_.prepare())

  def sample(count: Int): UnionSample = {
    val rng = new java.util.Random(seed)
    val stats = new UnionStats
    val buffers = samplers.map(new DrawBuffer(_, stats, rng.nextLong()))
    val book = new CoverBook(stats)
    while (book.size < count) {
      val j = CoverBook.pick(params.cumAlphas, rng.nextDouble())
      book.redraw(j)(buffers(j).pop(book.chunk(count, params.alphas(j))))
    }
    UnionSample(book.tuples.take(count), stats)
  }
}

object UnionSampler {

  /** Build the sampler with a choice of single-join subroutine. */
  def apply(joins: Seq[JoinSpec], params: UnionParams, kind: String, seed: Long): UnionSampler = {
    val samplers: IndexedSeq[JoinTupleSampler] = kind match {
      case "EW" => joins.map(new ExactWeightSampler(_)).toIndexedSeq
      case "EO" => joins.map(new OlkenSampler(_)).toIndexedSeq
      case other => throw new IllegalArgumentException(s"unknown join sampler kind: $other")
    }
    new UnionSampler(joins, params, samplers, seed)
  }
}
