package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.join._
import repro.core.union._
import repro.core.walk.JTuple
import repro.workloads.{UnionWorkload, UnionWorkloads}

/** Decorator over a single-join sampler: times each `sample` call as the
  * `core.join.draw` span. It implements the public [[JoinTupleSampler]]
  * trait, so [[UnionSampler]]'s public constructor takes it in place of the
  * sampler it wraps. What the draws returned is counted by `UnionStats`.
  */
final class TimedJoinSampler(inner: JoinTupleSampler, trace: Trace) extends JoinTupleSampler {
  def join: JoinSpec = inner.join
  def prepare(): Unit = inner.prepare()
  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) =
    trace.span("core.join.draw")(inner.sample(n, seed))
}

/** Walks spent by the warm-up, for the `core.walk.*` counts. */
final case class WarmupWalks(started: Long, succeeded: Long)

/** A sampler after setup. `request(n, i)` is the benchmark's i-th request. */
trait Prepared {
  def params: UnionParams
  def warmupWalks: WarmupWalks
  def request(n: Int, index: Int): UnionSample
}

/** One benchmark workload: input, set-up method and request size. */
abstract class Workload(val name: String, val sf: Double, val requestSize: Int) {
  /** Whether the join samplers walk (EO), so their draws count as walks. */
  def drawsWalk: Boolean = true

  def generate(spark: SparkSession, seed: Long): UnionWorkload

  /** Warm-up plus sampler construction and `prepare()`: the `setup_s` region. */
  def setup(w: UnionWorkload, samplerSeed: Long, trace: Trace): Prepared

  /** Algorithm 1 over prepared join samplers. Each request builds a fresh
    * [[UnionSampler]] (which only holds the seed) over the same prepared
    * samplers, each wrapped in [[TimedJoinSampler]], so requests draw
    * independent samples.
    */
  protected def unionRequests(w: UnionWorkload, p: UnionParams, walks: WarmupWalks,
                              samplers: IndexedSeq[JoinTupleSampler], seed: Long,
                              trace: Trace): Prepared =
    new Prepared {
      private val timed = samplers.map(new TimedJoinSampler(_, trace))
      val params: UnionParams = p
      val warmupWalks: WarmupWalks = walks
      def request(n: Int, index: Int): UnionSample =
        trace.span("core.union.request") {
          new UnionSampler(w.joins, p, timed, seed + 1000003L * (index + 1)).sample(n)
        }
    }
}

object Workload {

  private def walks(rw: RandomWalkWarmup): WarmupWalks =
    WarmupWalks(rw.batches.map(_.requested.toLong).sum, rw.batches.map(_.samples.size.toLong).sum)

  /** UQ1 with HISTOGRAM warm-up and EW join sampling. */
  object Uq1HistEw extends Workload("uq1-hist-ew", 0.01, 300) {
    override def drawsWalk: Boolean = false

    def generate(spark: SparkSession, seed: Long): UnionWorkload =
      UnionWorkloads.uq1(spark, sf, overlap = 0.3, nJoins = 3, seed = seed)

    def setup(w: UnionWorkload, samplerSeed: Long, trace: Trace): Prepared = {
      val params = trace.span("core.histogram") { WarmUp.histogram(w.joins) }
      val samplers = trace.span("core.join.ew_prepare") {
        val s = w.joins.map(new ExactWeightSampler(_)).toIndexedSeq
        new UnionSampler(w.joins, params, s, samplerSeed).prepare()
        s
      }
      unionRequests(w, params, WarmupWalks(0, 0), samplers, samplerSeed, trace)
    }
  }

  /** UQ1 (same data) with RANDOM-WALK warm-up (600 walks per join, the
    * harnesses' default) and EO join sampling.
    */
  object Uq1RwEo extends Workload("uq1-rw-eo", 0.01, 300) {
    def generate(spark: SparkSession, seed: Long): UnionWorkload = Uq1HistEw.generate(spark, seed)

    def setup(w: UnionWorkload, samplerSeed: Long, trace: Trace): Prepared = {
      val rw = trace.span("core.union.rw_warmup") {
        WarmUp.randomWalk(w.joins, 600, samplerSeed)
      }
      val samplers = trace.span("core.join.eo_prepare") {
        val s = w.joins.map(new OlkenSampler(_)).toIndexedSeq
        new UnionSampler(w.joins, rw.params, s, samplerSeed).prepare()
        s
      }
      unionRequests(w, rw.params, walks(rw), samplers, samplerSeed, trace)
    }
  }

  /** UQ2 with a RANDOM-WALK warm-up (600 walks per join, the harnesses'
    * default) seeding ONLINE-UNION (reuse on, default backtracking). Each
    * request is one sampling session: a fresh [[OnlineUnionSampler]] over
    * the same warm-up draws 1500 samples. The warm-up's pools drain early
    * in it; the rest comes from EO refills (whose rejected tuples go back
    * to the pools) and backtracks.
    *
    * Why sessions, and why sf 0.05: small requests on one long-lived
    * sampler are served for free until the pools drain and then wait
    * 6-11 s for a refill, so their throughput depends on how many slow
    * steps fit in the loop. Sessions all have the same shape, so a loop of
    * several averages them. At sf 0.01 the data's degree maxima, which set
    * Olken acceptance and so the number of walk rounds per refill, vary so
    * much between seeds that a 3000-sample session took 14-29 s.
    */
  object Uq2OnlineReuse extends Workload("uq2-online-reuse", 0.05, 1500) {
    def generate(spark: SparkSession, seed: Long): UnionWorkload =
      UnionWorkloads.uq2(spark, sf, seed = seed)

    def setup(w: UnionWorkload, samplerSeed: Long, trace: Trace): Prepared = {
      val rw = trace.span("core.union.rw_warmup") {
        WarmUp.randomWalk(w.joins, 600, samplerSeed)
      }
      new Prepared {
        val params: UnionParams = rw.params
        val warmupWalks: WarmupWalks = walks(rw)
        def request(n: Int, index: Int): UnionSample =
          trace.span("core.union.request") {
            new OnlineUnionSampler(w.joins, rw.params, Some(rw), samplerSeed + 1000003L * (index + 1),
              reuse = true).sample(n)
          }
      }
    }
  }

  val all: Seq[Workload] = Seq(Uq1HistEw, Uq1RwEo, Uq2OnlineReuse)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
