package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.union._
import repro.workloads.{UnionWorkload, UnionWorkloads}

/** The §9 evaluation harnesses. One function per reported panel (each
  * figure panel is a table of numbers here — see DESIGN.md's table index);
  * `jobs/` mains and `bench/` suites both call these and print the rows.
  */
object Experiments {

  // ---- shared plumbing ----------------------------------------------------

  def workload(spark: SparkSession, name: String, sf: Double, overlap: Double): UnionWorkload =
    name match {
      case "UQ1" => UnionWorkloads.uq1(spark, sf, overlap)
      case "UQ2" => UnionWorkloads.uq2(spark, sf)
      case "UQ3" => UnionWorkloads.uq3(spark, sf, overlap)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }

  private def timeMs[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000)
  }

  /** Build (warmupParams, warmup, sampler) for a method name:
    * HIST+EW, HIST+EO, RW+EW, RW+EO.
    */
  def makeSampler(w: UnionWorkload, method: String, seed: Long,
                  rwWalks: Int = 600): (UnionParams, Long, UnionSampler) = {
    val Array(warm, kind) = method.split("\\+")
    val (params, warmMs) = warm match {
      case "HIST" => timeMs(WarmUp.histogram(w.joins))
      case "RW"   => timeMs(WarmUp.randomWalk(w.joins, rwWalks, seed).params)
      case other  => throw new IllegalArgumentException(s"unknown warmup $other")
    }
    val sampler = UnionSampler(w.joins, params, kind, seed + 1)
    // Weight/bound precomputation belongs to the parameter phase (§9.2.2),
    // and a small untimed draw absorbs one-off Spark plan/caching costs so
    // the timed sweeps measure steady-state sampling.
    val (_, prepMs) = timeMs { sampler.prepare(); sampler.sample(8) }
    (params, warmMs + prepMs, sampler)
  }

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println(s"\n== $title ==")
    println(fmt(header))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(fmt(r)))
  }

  def f(d: Double): String = f"$d%.4f"

  // ---- T1 (Fig. 4a/4b): ratio-estimation error, HISTOGRAM+EO --------------

  final case class RatioErrorRow(workload: String, overlap: Double, join: Int,
                                 exactRatio: Double, estRatio: Double) {
    def error: Double = math.abs(estRatio - exactRatio)
  }

  def printT1(title: String, rows: Seq[RatioErrorRow]): Unit =
    printTable(title, Seq("overlap", "join", "exact |J|/|U|", "est |J|/|U|", "abs error"),
      rows.map(r => Seq(f(r.overlap), r.join.toString, f(r.exactRatio), f(r.estRatio), f(r.error))))

  /** Error of the |J_i|/|U| ratios estimated by HISTOGRAM-BASED (join sizes
    * instantiated with the extended-Olken bound) vs FullJoinUnion truth.
    */
  def t1RatioError(spark: SparkSession, name: String, sf: Double,
                   overlaps: Seq[Double]): Seq[RatioErrorRow] =
    overlaps.flatMap { ov =>
      val w = workload(spark, name, sf, ov)
      val est = WarmUp.histogram(w.joins)
      val exact = new FullJoinUnion(w.joins).params
      w.joins.indices.map(j => RatioErrorRow(name, ov, j, exact.ratios(j), est.ratios(j)))
    }

  // ---- T2 (Fig. 4c/4d): union-size estimation runtime ---------------------

  final case class EstRuntimeRow(workload: String, overlap: Double,
                                 histMs: Long, fullMs: Long,
                                 histUnion: Double, exactUnion: Double)

  def printT2(title: String, rows: Seq[EstRuntimeRow]): Unit =
    printTable(title, Seq("overlap", "HIST ms", "FULLJOIN ms", "HIST |U|", "exact |U|"),
      rows.map(r => Seq(f(r.overlap), r.histMs.toString, r.fullMs.toString,
        f(r.histUnion), f(r.exactUnion))))

  def t2EstimationRuntime(spark: SparkSession, name: String, sf: Double,
                          overlaps: Seq[Double]): Seq[EstRuntimeRow] =
    overlaps.map { ov =>
      val w = workload(spark, name, sf, ov)
      val (est, histMs) = timeMs(WarmUp.histogram(w.joins))
      val (exactU, fullMs) = timeMs {
        val fju = new FullJoinUnion(w.joins)
        fju.params.unionSize
      }
      EstRuntimeRow(name, ov, histMs, fullMs, est.unionSize, exactU)
    }

  // ---- T3 (Fig. 5a): ratio error, HISTOGRAM+EO vs RANDOM-WALK -------------

  final case class RatioCompareRow(join: Int, exactRatio: Double,
                                   histRatio: Double, rwRatio: Double) {
    def histError: Double = math.abs(histRatio - exactRatio)
    def rwError: Double = math.abs(rwRatio - exactRatio)
  }

  def printT3(title: String, rows: Seq[RatioCompareRow]): Unit =
    printTable(title, Seq("join", "exact", "HIST est", "HIST err", "RW est", "RW err"),
      rows.map(r => Seq(r.join.toString, f(r.exactRatio), f(r.histRatio),
        f(r.histError), f(r.rwRatio), f(r.rwError))))

  def t3RatioErrorRw(spark: SparkSession, name: String, sf: Double, overlap: Double,
                     rwWalks: Int = 800, seed: Long = 42): Seq[RatioCompareRow] = {
    val w = workload(spark, name, sf, overlap)
    val hist = WarmUp.histogram(w.joins)
    val rw = WarmUp.randomWalk(w.joins, rwWalks, seed).params
    val exact = new FullJoinUnion(w.joins).params
    w.joins.indices.map(j => RatioCompareRow(j, exact.ratios(j), hist.ratios(j), rw.ratios(j)))
  }

  // ---- T4 (Fig. 5b): sampling time vs data scale --------------------------

  final case class ScaleRow(workload: String, sf: Double, method: String,
                            n: Int, warmupMs: Long, sampleMs: Long) {
    def totalMs: Long = warmupMs + sampleMs
  }

  def printT4(title: String, rows: Seq[ScaleRow]): Unit =
    printTable(title, Seq("sf", "method", "N", "warmup ms", "sample ms", "total ms"),
      rows.map(r => Seq(f(r.sf), r.method, r.n.toString, r.warmupMs.toString,
        r.sampleMs.toString, r.totalMs.toString)))

  def printT5(title: String, rows: Seq[ScaleRow]): Unit =
    printTable(title, Seq("method", "N", "warmup ms", "sample ms", "total ms"),
      rows.map(r => Seq(r.method, r.n.toString, r.warmupMs.toString,
        r.sampleMs.toString, r.totalMs.toString)))

  def t4ScaleData(spark: SparkSession, name: String, sfs: Seq[Double], overlap: Double,
                  methods: Seq[String], n: Int, seed: Long = 42): Seq[ScaleRow] =
    for (sf <- sfs; m <- methods) yield {
      val w = workload(spark, name, sf, overlap)
      val (_, warmMs, sampler) = makeSampler(w, m, seed)
      val (res, sampleMs) = timeMs(sampler.sample(n))
      require(res.tuples.size == n)
      ScaleRow(name, sf, m, n, warmMs, sampleMs)
    }

  // ---- T5 (Fig. 5c/5d/5e): sampling time vs sample size -------------------

  def t5ScaleSamples(spark: SparkSession, name: String, sf: Double, overlap: Double,
                     methods: Seq[String], ns: Seq[Int], seed: Long = 42): Seq[ScaleRow] =
    methods.flatMap { m =>
      val w = workload(spark, name, sf, overlap)
      val (_, warmMs, sampler) = makeSampler(w, m, seed)
      ns.map { n =>
        val (res, sampleMs) = timeMs(sampler.sample(n))
        require(res.tuples.size == n)
        ScaleRow(name, sf, m, n, warmMs, sampleMs)
      }
    }

  // ---- T6 (Fig. 5f/5g/5h): runtime breakdown ------------------------------

  final case class BreakdownRow(workload: String, method: String, n: Int,
                                paramsMs: Long, acceptedMs: Long, rejectedMs: Long,
                                accepted: Int, rejectedDup: Int, eoRejected: Int,
                                walkFailures: Int)

  def printT6(title: String, rows: Seq[BreakdownRow]): Unit =
    printTable(title, Seq("method", "params ms", "accepted ms", "rejected ms",
      "accepted", "dup-rej", "EO-rej", "walk-fail"),
      rows.map(r => Seq(r.method, r.paramsMs.toString, r.acceptedMs.toString,
        r.rejectedMs.toString, r.accepted.toString, r.rejectedDup.toString,
        r.eoRejected.toString, r.walkFailures.toString)))

  def t6Breakdown(spark: SparkSession, name: String, sf: Double, overlap: Double,
                  methods: Seq[String], n: Int, seed: Long = 42): Seq[BreakdownRow] =
    methods.map { m =>
      val w = workload(spark, name, sf, overlap)
      val (_, warmMs, sampler) = makeSampler(w, m, seed)
      val res = sampler.sample(n)
      val st = res.stats
      BreakdownRow(name, m, n, warmMs, st.acceptedMs, st.rejectedMs,
        st.accepted, st.rejectedDup, st.eoRejected, st.walkFailures)
    }

  // ---- T7 (Fig. 6a): online union sampling, reuse vs no-reuse -------------

  final case class ReuseRow(workload: String, n: Int, reuse: Boolean,
                            warmupMs: Long, sampleMs: Long, poolHits: Int,
                            walkAttempts: Int)

  def printT7(title: String, rows: Seq[ReuseRow]): Unit =
    printTable(title, Seq("reuse", "N", "warmup ms", "sample ms", "pool hits", "walk attempts"),
      rows.map(r => Seq(r.reuse.toString, r.n.toString, r.warmupMs.toString,
        r.sampleMs.toString, r.poolHits.toString, r.walkAttempts.toString)))

  def t7Reuse(spark: SparkSession, name: String, sf: Double, overlap: Double,
              ns: Seq[Int], rwWalks: Int = 600, seed: Long = 42): Seq[ReuseRow] = {
    // One workload and one warm-up shared by both arms (the comparison is
    // reuse-vs-discard of the *same* warm-up samples); an untimed run on
    // the same instance absorbs relation caching and plan compilation.
    val w = workload(spark, name, sf, overlap)
    val (warm, warmMs) = timeMs(WarmUp.randomWalk(w.joins, rwWalks, seed))
    new OnlineUnionSampler(w.joins, warm.params, None, seed - 2,
      phi = Int.MaxValue, reuse = false).sample(16)
    Seq(true, false).flatMap { reuse =>
      ns.map { n =>
        val s = new OnlineUnionSampler(w.joins, warm.params,
          if (reuse) Some(warm) else None, seed + n, phi = Int.MaxValue, reuse = reuse)
        val (res, sampleMs) = timeMs(s.sample(n))
        val st = res.stats.asInstanceOf[s.OnlineStats]
        ReuseRow(name, n, reuse, warmMs, sampleMs, st.poolHits, st.walkAttempts)
      }
    }
  }

  // ---- T8 (Fig. 6b): per-sample time, regular vs reuse phase --------------

  final case class PhaseRow(workload: String, regularMsPerSample: Double,
                            reuseMsPerSample: Double)

  def printT8(title: String, rows: Seq[PhaseRow]): Unit =
    printTable(title, Seq("workload", "regular ms/sample", "reuse ms/sample"),
      rows.map(r => Seq(r.workload, f(r.regularMsPerSample), f(r.reuseMsPerSample))))

  def t8ReusePhase(spark: SparkSession, name: String, sf: Double, overlap: Double,
                   n: Int, rwWalks: Int = 600, seed: Long = 42): PhaseRow = {
    val w = workload(spark, name, sf, overlap)
    val warm = WarmUp.randomWalk(w.joins, rwWalks, seed)
    // Reuse phase: pools seeded from the warm-up serve most draws.
    val sr = new OnlineUnionSampler(w.joins, warm.params, Some(warm), seed + 1,
      phi = Int.MaxValue)
    val rr = sr.sample(n)
    val str = rr.stats.asInstanceOf[sr.OnlineStats]
    // Regular phase: same sampler with pools disabled — every accepted
    // sample pays the full walk path.
    val sn = new OnlineUnionSampler(w.joins, warm.params, None, seed + 2,
      phi = Int.MaxValue, reuse = false)
    val rn = sn.sample(n)
    val stn = rn.stats
    PhaseRow(name,
      (stn.drawNs + stn.bookNs) / 1e6 / math.max(1, stn.accepted),
      str.poolNs / 1e6 / math.max(1, str.poolHits))
  }
}
