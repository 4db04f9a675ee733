package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{expr, lit}
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}
import repro.core.union.{UnionSample, UnionStats}
import repro.workloads.UnionWorkload

/** The union-sampling benchmark. One run:
  *
  *  1. generates the workload's inputs from `--seed` and caches them;
  *  2. runs the setup (warm-up, sampler construction, `prepare()`), timed;
  *  3. runs a closed loop for `--seconds`: one client issues `sample(n)`
  *     requests against the prepared sampler, one after another;
  *  4. checks every returned tuple against exact ground truth;
  *  5. writes the result object (end-to-end metrics, or with `--trace 1`
  *     the per-layer metrics) to `--result`.
  *
  * Launched by `perfbench/run.py`, which builds it and prints the result.
  */
object Main {

  /** A run's outcome: its provenance (a JSON object) and the result fields. */
  final case class Outcome(provenance: JValue, correct: Boolean, attempted: Long, failed: Long,
                           metrics: Seq[(String, Double, String)]) {
    def metric(name: String): Double = metrics.find(_._1 == name).map(_._2)
      .getOrElse(throw new NoSuchElementException(name))
  }

  final case class Args(workload: Workload, seed: Long, samplerSeed: Long, seconds: Double,
                        traced: Boolean, result: Path, traceDir: Path)

  val SparkSettings: Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1")

  /** Cores of `local[k]`: four, or fewer on a smaller machine. */
  def cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workload.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; known: ${Workload.all.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLong
    Args(workload, seed, kv.get("sampler-seed").map(_.toLong).getOrElse(seed * 7919L + 17L),
      need("seconds").toDouble, need("trace") == "1", Paths.get(need("result")),
      Paths.get(kv.getOrElse("trace-dir", ".")))
  }

  def session(localDir: String): SparkSession = {
    val b = SparkSession.builder.master(s"local[$cores]").appName("perfbench")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", Paths.get(localDir, "warehouse").toString)
    val s = SparkSettings.foldLeft(b) { case (acc, (k, v)) => acc.config(k, v) }.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spark = session(Option(System.getProperty("java.io.tmpdir")).getOrElse("."))
    log(f"spark session ready at ${jvmUptimeS}%.2f s")
    try {
      val o = run(spark, args)
      val out = compact(render(o.provenance)) + "\n" +
        Json.result(o.correct, o.attempted, o.failed, o.metrics)
      Files.write(args.result, out.getBytes(StandardCharsets.UTF_8))
      log(f"result written at ${jvmUptimeS}%.2f s")
    } finally spark.stop()
  }

  private def jvmUptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Every relation of the workload once, by name. */
  def relations(w: UnionWorkload): Seq[repro.core.Rel] =
    w.joins.flatMap(_.relations).groupBy(_.name).map(_._2.head).toSeq.sortBy(_.name)

  /** The whole run. */
  def run(spark: SparkSession, args: Args): Outcome = {
    val wl = args.workload
    val trace = if (args.traced) new SparkTrace(spark.sparkContext) else Trace.Off

    // 1. Inputs: generate, cache, count.
    val tGen = System.nanoTime()
    val uw = wl.generate(spark, args.seed)
    val rels = relations(uw)
    val rows = rels.map(r => r.name -> r.count)
    val genS = seconds(tGen)
    val provenance = Provenance(args, rels, rows)
    log(f"${wl.name}: inputs ${rows.map(_._2).sum} rows in $genS%.2f s")

    // 2. Setup.
    var attempted = 1L
    var failed = 0L
    val tSetup = System.nanoTime()
    val setupTry = scala.util.Try(trace.span("setup") {
      wl.setup(uw, args.samplerSeed, trace)
    })
    val setupS = seconds(tSetup)
    setupTry.failed.foreach { e => failed += 1; log(s"setup failed: $e") }

    // 3. Closed loop of requests for --seconds; the request running at the
    // deadline finishes and counts. The first request runs the request
    // path cold (JIT, plan compilation, lazy state) and counts like the
    // others, so work moved from setup into requests shows in
    // samples_per_s. The loop only issues requests and keeps their
    // outputs, so in a traced run the request spans cover its wall time.
    val outputs = scala.collection.mutable.ArrayBuffer.empty[scala.util.Try[UnionSample]]
    var loopS = 0.0
    setupTry.foreach { prepared =>
      val tLoop = System.nanoTime()
      val deadline = tLoop + (args.seconds * 1e9).toLong
      while (outputs.isEmpty || System.nanoTime() < deadline) {
        val tReq = System.nanoTime()
        outputs += scala.util.Try(prepared.request(wl.requestSize, outputs.size))
        log(f"request ${outputs.size - 1}: ${seconds(tReq)}%.3f s")
      }
      loopS = seconds(tLoop)
    }

    // 4. Check every request against exact ground truth, computed once per
    // run after the timed regions.
    val tTruth = System.nanoTime()
    var truth = new GroundTruth(uw)
    log(f"ground truth in ${seconds(tTruth)}%.2f s: |J| = ${truth.joinSizes.mkString(", ")}, " +
      s"|U| = ${truth.unionSize}")
    var shares = new ShareCounter(truth)
    val stats = scala.collection.mutable.ArrayBuffer.empty[UnionStats]
    var returned = 0L
    outputs.zipWithIndex.foreach { case (out, i) =>
      attempted += 1
      out match {
        case scala.util.Success(o) =>
          truth.check(o, wl.requestSize) match {
            case None => returned += o.tuples.size; shares.add(o); stats += o.stats
            case Some(why) => failed += 1; log(s"request $i failed its check: $why")
          }
        case scala.util.Failure(e) => failed += 1; log(s"request $i threw: $e")
      }
    }
    val samplesPerS = returned / math.max(loopS, 1e-9)
    log(f"setup $setupS%.2f s; ${outputs.size} requests, $returned samples in $loopS%.2f s = " +
      f"$samplesPerS%.2f samples/s")

    // 5. Metrics. Accuracy first, then release the ground truth and the
    // outputs so the heap figure holds only the program's state.
    log(f"checks done at ${jvmUptimeS}%.2f s")
    val params = setupTry.toOption.map(_.params)
    val unionRelErr = params.fold(1.0)(p => math.abs(p.unionSize - truth.unionSize) / truth.unionSize)
    val ratioErr = shares.ratioErr
    truth = null
    shares = null
    outputs.clear()
    val heapMb = heapAfterGc()
    java.lang.ref.Reference.reachabilityFence(setupTry)

    val correct = failed == 0
    val metrics: Seq[(String, Double, String)] = trace match {
      case t: SparkTrace =>
        t.drain()
        val rep = new Report(t, stats.toSeq,
          setupTry.toOption.map(_.warmupWalks), wl.drawsWalk)
        val extra = Seq(
          ("workloads.gen_s", genS, "s"),
          ("workloads.rows", rows.map(_._2).sum.toDouble, "count"),
          ("fail_frac", failed.toDouble / attempted, "ratio"),
          ("union_size_rel_err", unionRelErr, "ratio"),
          ("ratio_err", ratioErr, "ratio"),
          ("trace.setup_s", setupS, "s"),
          ("trace.loop_s", loopS, "s"),
          ("trace.samples_per_s", samplesPerS, "samples/s"),
          ("spark.jobs_per_sample", rep.requestJobs.toDouble / math.max(1L, returned), "jobs/sample"),
          ("spark.cached_mb", cachedMb(spark), "MB"))
        val all = rep.metrics(loopS) ++ extra
        Json.writeTrace(args.traceDir.resolve(s"${wl.name}-seed${args.seed}.trace.json"),
          provenance.json, t, all)
        all
      case _ =>
        Seq(("setup_s", setupS, "s"), ("samples_per_s", samplesPerS, "samples/s"),
          ("heap_mb", heapMb, "MB"))
    }
    Outcome(JObject("provenance" -> provenance.json), correct, attempted, failed, metrics)
  }

  /** Driver heap in use after full collections, in MB (10^6 bytes). */
  def heapAfterGc(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach(_ => System.gc())
    mem.getHeapMemoryUsage.getUsed / 1e6
  }

  /** Memory held by Spark's cached blocks, in MB. */
  def cachedMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
}

/** What a result was measured on. A run on other inputs (different row
  * counts or checksums) or other settings is flagged, not compared.
  */
final case class Provenance(args: Main.Args, rels: Seq[repro.core.Rel], rows: Seq[(String, Long)]) {
  /** Bit-xor of `xxhash64` over each relation's rows, in one Spark action. */
  private lazy val checksums: Map[String, String] =
    rels.map { r =>
      r.df.select(lit(r.name).as("name"),
        expr(s"bit_xor(xxhash64(${r.cols.map(c => s"`$c`").mkString(", ")}))").as("h"))
    }.reduce(_ union _).collect().map { row =>
      row.getString(0) -> f"${if (row.isNullAt(1)) 0L else row.getLong(1)}%016x"
    }.toMap

  lazy val json: JValue = JObject(
    "workload" -> JString(args.workload.name),
    "seed" -> JLong(args.seed),
    "sampler_seed" -> JLong(args.samplerSeed),
    "sf" -> JDouble(args.workload.sf),
    "request_size" -> JInt(args.workload.requestSize),
    "seconds" -> JDouble(args.seconds),
    "master" -> JString(s"local[${Main.cores}]"),
    "spark" -> JObject((Main.SparkSettings.map { case (k, v) => k -> JString(v) } :+
      ("version" -> JString(org.apache.spark.SPARK_VERSION))).toList),
    "relations" -> JObject(rels.zip(rows).map { case (r, (_, n)) =>
      r.name -> JObject("rows" -> JLong(n), "checksum" -> JString(checksums(r.name)))
    }.toList))
}
