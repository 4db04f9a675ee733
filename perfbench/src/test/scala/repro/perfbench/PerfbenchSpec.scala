package repro.perfbench

import java.nio.file.Files

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.join.{ExactWeightSampler, JoinTupleSampler, OlkenSampler}
import repro.core.union.{UnionSampler, WarmUp}
import repro.workloads.{UnionWorkload, UnionWorkloads}

/** Self-test of the benchmark: tracing must not change what the library
  * returns, and the traced run's request spans must cover the loop.
  *
  * Run with `sbt perfbench/test` from `perfbench/`.
  */
class PerfbenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession =
    Main.session(Files.createTempDirectory("perfbench-test").toString)

  override def afterAll(): Unit = spark.stop()

  /** A small UQ1 with RANDOM-WALK warm-up and EO: every traced layer of
    * the request path (union, join decorator, Spark) does work.
    */
  private object SmallRwEo extends Workload("small-uq1-rw-eo", 0.004, 40) {
    def generate(spark: SparkSession, seed: Long): UnionWorkload =
      UnionWorkloads.uq1(spark, sf, overlap = 0.3, nJoins = 2, seed = seed)
    def setup(w: UnionWorkload, samplerSeed: Long, trace: Trace): Prepared =
      Workload.Uq1RwEo.setup(w, samplerSeed, trace)
  }

  test("the tracing decorator returns the same tuples as the untraced path") {
    val w = SmallRwEo.generate(spark, 5)
    val params = WarmUp.randomWalk(w.joins, 100, 9).params
    val kinds: Seq[(String, IndexedSeq[JoinTupleSampler])] = Seq(
      "EW" -> w.joins.map(new ExactWeightSampler(_)).toIndexedSeq,
      "EO" -> w.joins.map(new OlkenSampler(_)).toIndexedSeq)
    kinds.foreach { case (kind, samplers) =>
      samplers.foreach(_.prepare())
      val plain = new UnionSampler(w.joins, params, samplers, 77).sample(40)
      val trace = new SparkTrace(spark.sparkContext)
      val timed = new UnionSampler(w.joins, params,
        samplers.map(new TimedJoinSampler(_, trace)), 77).sample(40)
      spark.sparkContext.removeSparkListener(trace)
      assert(timed.tuples.map { case (t, j) => (t.key, j) } ==
        plain.tuples.map { case (t, j) => (t.key, j) }, s"$kind tuples differ under tracing")
      assert(trace.spans.count(_.layer == "core.join.draw") > 0)
    }
  }

  test("request spans account for the loop wall time") {
    val dir = Files.createTempDirectory("perfbench-trace")
    val o = Main.run(spark, Main.Args(SmallRwEo, seed = 3, samplerSeed = 4, seconds = 2.0,
      traced = true, result = dir.resolve("result.json"), traceDir = dir))
    assert(o.correct && o.failed == 0, o)
    val loop = o.metric("trace.loop_s")
    // Stated tolerance: 2% of the loop time, or 50 ms for short loops. The
    // loop is timed by its own clock and each request by its span, so the
    // wall time the spans leave uncovered is measured. SQL times come from
    // listener event times, so a self time below minus the tolerance means
    // a span was attributed to a call it did not run in.
    val tol = math.max(0.02 * loop, 0.05)
    assert(math.abs(o.metric("trace.unattributed_s")) <= tol,
      s"request spans cover ${o.metric("trace.request_s")} s of the $loop s loop (tolerance $tol s)")
    Seq("trace.request_spark_s", "trace.join_self_s", "trace.union_self_s")
      .foreach(n => assert(o.metric(n) >= -tol, s"$n = ${o.metric(n)} is negative beyond $tol s"))
    assert(o.metric("trace.request_spark_s") > 0 && o.metric("trace.join_self_s") > 0)
    // The predicted split: walks but no histogram or EW work on RW+EO.
    assert(o.metric("core.walk.batch_jobs") > 0 && o.metric("core.walk.membership_calls") > 0)
    assert(o.metric("core.histogram.jobs") == 0 && o.metric("core.join.ew_prepare_jobs") == 0)
    assert(Files.exists(dir.resolve("small-uq1-rw-eo-seed3.trace.json")))
  }
}
