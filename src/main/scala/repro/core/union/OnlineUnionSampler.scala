package repro.core.union

import repro.core._
import repro.core.join.OlkenSampler
import repro.core.walk._

import scala.collection.mutable.ArrayBuffer

/** Algorithm 2 — online set-union sampling with sample *reuse* and
  * *backtracking* (§7).
  *
  * Parameters start from a cheap instantiation (HISTOGRAM-BASED by default;
  * callers may seed them from a RANDOM-WALK warm-up, in which case the
  * warm-up's walk tuples seed the reuse pools). The main loop selects
  * joins as Algorithm 1 does (redrawing from the same join until a draw is
  * accepted by the shared [[CoverBook]]), but:
  *
  *  - **Reuse** (lines 7–10): if join j's pool of warm-up walk tuples is
  *    non-empty, pop a random pooled tuple t and accept it with ratio
  *    R = 1/(p(t)·|J_j|); R may exceed 1, in which case ⌊R⌋ + Bern(R−⌊R⌋)
  *    instances are emitted (the paper's r_i system, realized in
  *    expectation; more than [[OnlineUnionSampler.MaxCopies]] are cut and
  *    counted in `copiesCapped`). A drained pool falls through to a real
  *    walk-based draw (Alg. 2 line 9). The pools hold warm-up walks only:
  *    the tuples an EO refill rejects are distributed ∝ p(t) − 1/W_j, not
  *    ∝ p(t), so accepting them with R would over-sample high-p(t)
  *    tuples. Every refill walk goes to the HT size statistics instead.
  *  - **Backtracking** (line 18): every φ recorded walk probabilities, the
  *    parameters are re-estimated with the RANDOM-WALK method from all
  *    walks so far (an estimate anchored at a join not walked yet keeps
  *    its value), and every tuple already in T is re-accepted with
  *    probability min(1, α'_j/α_j) so the sample follows the refreshed
  *    |J'_j|/|U|. Updates stop once the size estimates reach the target
  *    confidence level γ.
  */
final class OnlineUnionSampler(joins: Seq[JoinSpec],
                               initParams: UnionParams,
                               warmup: Option[RandomWalkWarmup],
                               seed: Long,
                               phi: Int = 256,
                               gamma: Double = 0.9,
                               reuse: Boolean = true) {
  private val n = joins.size
  private val rng = new java.util.Random(seed)
  private val samplers = joins.map(new OlkenSampler(_)).toIndexedSeq

  private def warm(j: Int): IndexedSeq[JTuple] =
    warmup.fold(IndexedSeq.empty[JTuple])(_.batches(j).samples)

  /** Reuse pools: the warm-up's walk tuples with known p(t), drawn without
    * replacement and never refilled.
    */
  private val pools: IndexedSeq[ArrayBuffer[JTuple]] =
    IndexedSeq.tabulate(n)(j => ArrayBuffer.from(if (reuse) warm(j) else Nil))

  /** All successful walk tuples per join — the RW overlap estimator input. */
  private val walked: IndexedSeq[ArrayBuffer[JTuple]] =
    IndexedSeq.tabulate(n)(j => ArrayBuffer.from(warm(j)))

  /** Online walk statistics per join (seeded from the warm-up if given). */
  private val walkStats: IndexedSeq[WalkStats] =
    IndexedSeq.tabulate(n)(j => warmup.fold(new WalkStats)(w => WalkStats.of(w.batches(j))))

  /** Membership tables of `walked`: (j, i) ↦ one flag per probed tuple of
    * `walked(j)`, in order, set when it is in join i; seeded from the
    * warm-up's. A re-estimate probes only the tuples past the tables' end,
    * since membership does not change.
    */
  private val memb =
    scala.collection.mutable.Map.from(warmup.fold(Map.empty[(Int, Int), IndexedSeq[Boolean]])(_.memberships))

  /** Join j's successful walks so far: the warm-up's, then every refill's. */
  private[core] def walks(j: Int): IndexedSeq[JTuple] = walked(j).toIndexedSeq

  final class OnlineStats extends UnionStats {
    var poolHits: Int = 0         // tuples served from the reuse pool
    var poolRejected: Int = 0
    var backtracks: Int = 0
    var backtrackRemoved: Int = 0
    var poolNs: Long = 0          // time spent serving from the pool
    var copiesCapped: Int = 0     // pool pops whose ⌊R⌋+Bern copies were cut to MaxCopies
    var walksRecorded: Int = 0    // refill walk outcomes added to the HT statistics
    var estimatesKept: Int = 0    // re-estimated |O_Δ| kept from before: anchor join not walked yet
    val reestimates = ArrayBuffer.empty[OnlineUnionSampler.Reestimate] // one per backtrack

    def poolMs: Long = poolNs / 1000000
  }

  def sample(count: Int): UnionSample = {
    var params = initParams
    val stats = new OnlineStats
    val book = new CoverBook(stats)
    var recordedP = 0
    var confident = false

    // Every walk of a refill is recorded once, when the refill arrives:
    // accepted tuples (also those still buffered), rejected tuples and
    // failures. None of them enters a pool (see the class doc).
    def record(j: Int, f: Double): Unit = { walkStats(j).add(f); stats.walksRecorded += 1 }
    val buffers = IndexedSeq.tabulate(n) { j =>
      new DrawBuffer(samplers(j), stats, rng.nextLong(), (ts, ds) => {
        (ts ++ ds.rejectedTuples).foreach { t => record(j, 1.0 / t.p); walked(j) += t }
        (0 until ds.walkFailures).foreach(_ => record(j, 0.0))
        recordedP += ds.walkAttempts
      })
    }

    def chunk(j: Int): Int =
      if (reuse && pools(j).nonEmpty) {
        // Pools serve most draws; size walk refills by the observed pool
        // fall-through rate so refills stay few *and* amortized.
        val fallRate = (stats.poolRejected + 1.0) / (stats.poolHits + stats.poolRejected + 2.0)
        book.chunk(count, params.alphas(j), share = fallRate, lo = 8)
      } else book.chunk(count, params.alphas(j))

    while (book.size < count) {
      val j = CoverBook.pick(params.cumAlphas, rng.nextDouble())

      // -- reuse path (Alg. 2 lines 7–8) ----------------------------------
      // R-rejection retries the pool: the pool is an i.i.d. collection of
      // warm-up walks, so rejection sampling over it is exactly uniform over
      // J_j and saves a walk (Alg. 2 as written falls through on the first
      // rejection; the pool retry is equally uniform and avoids Spark
      // round-trips — see DESIGN.md). Cover-rejected pool tuples also redraw
      // from the pool. Only a drained pool falls through to real walks.
      var served = false
      while (!served && reuse && pools(j).nonEmpty) {
        val t0 = System.nanoTime()
        val idx = rng.nextInt(pools(j).size)
        val t = pools(j).remove(idx)
        val r = 1.0 / (t.p * math.max(params.joinSizes(j), 1e-9))
        var copies = r.toInt + (if (rng.nextDouble() < r - r.toInt) 1 else 0)
        if (copies > OnlineUnionSampler.MaxCopies) {
          stats.copiesCapped += 1
          copies = OnlineUnionSampler.MaxCopies
        }
        if (copies == 0) stats.poolRejected += 1
        else {
          stats.poolHits += 1
          served = book.offer(t, j, copies)
        }
        stats.poolNs += System.nanoTime() - t0
      }

      // -- walk path (Alg. 2 lines 9–10), redraw until cover-accepted -----
      if (!served) book.redraw(j)(buffers(j).pop(chunk(j)))

      // -- backtracking with parameter update (Alg. 2 line 18) ------------
      if (recordedP >= phi && !confident) {
        recordedP = 0
        val newParams = reestimate(params, stats)
        stats.backtracks += 1
        stats.backtrackRemoved += book.retain { case (_, tj) =>
          val ratioOld = params.alphas(tj)
          val ratioNew = newParams.alphas(tj)
          val keep = if (ratioOld <= 0) 1.0 else math.min(1.0, ratioNew / ratioOld)
          rng.nextDouble() < keep
        }
        params = newParams
        confident = confidence() >= gamma
      }
    }
    UnionSample(book.tuples.take(count), stats)
  }

  /** Re-run the RANDOM-WALK parameter estimation over all walks so far.
    * An estimate anchored at a join with no walk yet keeps its value in
    * `params` (counted in `estimatesKept`): a size of 0 would never select
    * that join, so it would never be walked.
    */
  private def reestimate(params: UnionParams, stats: OnlineStats): UnionParams = {
    val batches = IndexedSeq.tabulate(n) { j =>
      WalkBatch(walked(j).toIndexedSeq, walkStats(j).n)
    }
    val fresh = batches.indices.map { j =>
      // Every table (j, i) covers the same prefix of walked(j).
      val probed = memb.get((j, (j + 1) % n)).fold(0)(_.size)
      val ts = batches(j).samples.drop(probed)
      WalkBatch(ts, ts.size)
    }
    WarmUp.memberships(joins, fresh).foreach { case (ji, flags) =>
      memb(ji) = memb.getOrElse(ji, IndexedSeq.empty) ++ flags
    }
    stats.estimatesKept += params.overlaps.keys.count(d => batches(d.min).requested == 0)
    val sizes = (0 until n).map(walkStats(_).mean)
    val next = WarmUp.paramsFrom(n, sizes, batches, memb.toMap, Some(params))
    stats.reestimates += OnlineUnionSampler.Reestimate(
      batches.map(_.samples.size), batches.map(_.requested), sizes, next)
    next
  }

  /** Confidence that the size estimates are settled: 1 − relative CI
    * half-width, worst join.
    */
  private def confidence(z: Double = 1.96): Double =
    (0 until n).map { j =>
      val s = walkStats(j)
      if (s.mean <= 0) 0.0 else math.max(0.0, 1.0 - s.ciHalfWidth(z) / s.mean)
    }.min
}

object OnlineUnionSampler {

  /** What one backtrack's re-estimate read and produced: per join, the
    * walked tuples ([[OnlineUnionSampler.walks]]' first `walked(j)`), the
    * walks recorded and the size estimate; then the new parameters.
    */
  final case class Reestimate(walked: IndexedSeq[Int], recorded: IndexedSeq[Int],
                              sizes: IndexedSeq[Double], params: UnionParams)

  /** The most instances one pooled tuple emits. It guards against
    * degenerate |J_j| under-estimates (R = 1/(p(t)·|J_j|) grows without
    * bound); a cut changes the output distribution, so each is counted in
    * `copiesCapped`.
    */
  val MaxCopies = 16
}
