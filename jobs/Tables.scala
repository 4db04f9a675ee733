package repro.jobs

import repro.exp.Experiments

/** T1 (Fig. 4a/4b): |J_i|/|U| ratio-estimation error of HISTOGRAM+EO vs
  * overlap scale. Args: [sf=0.05].
  */
object T1RatioError {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T1RatioError")
    val sf = JobUtil.argD(args, 0, 0.05)
    val overlaps = Seq(0.2, 0.4, 0.6, 0.8)
    for (w <- Seq("UQ1", "UQ3")) {
      val rows = Experiments.t1RatioError(spark, w, sf, overlaps)
      Experiments.printT1(s"T1 ($w): ratio error, HISTOGRAM+EO, sf=$sf", rows)
    }
    spark.stop()
  }
}

/** T2 (Fig. 4c/4d): union-size estimation runtime, HISTOGRAM vs FULLJOIN.
  * Args: [sf=0.05].
  */
object T2EstimationRuntime {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T2EstimationRuntime")
    val sf = JobUtil.argD(args, 0, 0.05)
    val overlaps = Seq(0.2, 0.4, 0.6, 0.8)
    for (w <- Seq("UQ1", "UQ3")) {
      val rows = Experiments.t2EstimationRuntime(spark, w, sf, overlaps)
      Experiments.printT2(s"T2 ($w): union-size estimation runtime, sf=$sf", rows)
    }
    spark.stop()
  }
}

/** T3 (Fig. 5a): per-join ratio error, HISTOGRAM+EO vs RANDOM-WALK on UQ1.
  * Args: [sf=0.05] [overlap=0.3] [walks=1500].
  */
object T3RatioErrorRw {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T3RatioErrorRw")
    val rows = Experiments.t3RatioErrorRw(spark, "UQ1",
      JobUtil.argD(args, 0, 0.05), JobUtil.argD(args, 1, 0.3), JobUtil.argI(args, 2, 1500))
    Experiments.printT3("T3 (UQ1): ratio error, HISTOGRAM+EO vs RANDOM-WALK", rows)
    spark.stop()
  }
}

/** T4 (Fig. 5b): SetUnion sampling time vs data scale on UQ1.
  * Args: [overlap=0.3] [n=300].
  */
object T4ScaleData {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T4ScaleData")
    val rows = Experiments.t4ScaleData(spark, "UQ1", Seq(0.02, 0.04, 0.08),
      JobUtil.argD(args, 0, 0.3), Seq("HIST+EO", "HIST+EW", "RW+EW"), JobUtil.argI(args, 1, 300))
    Experiments.printT4("T4 (UQ1): sampling time vs data scale", rows)
    spark.stop()
  }
}

/** T5 (Fig. 5c/5d/5e): sampling time vs sample size per workload.
  * Args: [sf=0.05] [overlap=0.3].
  */
object T5ScaleSamples {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T5ScaleSamples")
    val sf = JobUtil.argD(args, 0, 0.05)
    val ov = JobUtil.argD(args, 1, 0.3)
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t5ScaleSamples(spark, w, sf, ov,
        Seq("HIST+EW", "HIST+EO", "RW+EW"), Seq(100, 300, 1000))
      Experiments.printT5(s"T5 ($w): sampling time vs sample size, sf=$sf", rows)
    }
    spark.stop()
  }
}

/** T6 (Fig. 5f/5g/5h): runtime breakdown per workload and method.
  * Args: [sf=0.05] [overlap=0.3] [n=500].
  */
object T6Breakdown {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T6Breakdown")
    val sf = JobUtil.argD(args, 0, 0.05)
    val ov = JobUtil.argD(args, 1, 0.3)
    val n = JobUtil.argI(args, 2, 500)
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t6Breakdown(spark, w, sf, ov,
        Seq("HIST+EW", "HIST+EO", "RW+EW"), n)
      Experiments.printT6(s"T6 ($w): time breakdown, N=$n, sf=$sf", rows)
    }
    spark.stop()
  }
}

/** T7 (Fig. 6a): online union sampling time, reuse vs no-reuse.
  * Args: [sf=0.05] [overlap=0.3] [walks=600].
  */
object T7Reuse {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T7Reuse")
    val sf = JobUtil.argD(args, 0, 0.05)
    val ov = JobUtil.argD(args, 1, 0.3)
    val walks = JobUtil.argI(args, 2, 600)
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t7Reuse(spark, w, sf, ov, Seq(100, 300, 800), walks)
      Experiments.printT7(s"T7 ($w): online sampling, reuse vs no-reuse, sf=$sf", rows)
    }
    spark.stop()
  }
}

/** T8 (Fig. 6b): per-accepted-sample time, regular vs reuse phase.
  * Args: [sf=0.05] [overlap=0.3] [n=500].
  */
object T8ReusePhase {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("T8ReusePhase")
    val sf = JobUtil.argD(args, 0, 0.05)
    val ov = JobUtil.argD(args, 1, 0.3)
    val n = JobUtil.argI(args, 2, 500)
    val rows = Seq("UQ1", "UQ2", "UQ3").map(w => Experiments.t8ReusePhase(spark, w, sf, ov, n))
    Experiments.printT8(s"T8: ms per accepted sample, regular vs reuse phase (N=$n)", rows)
    spark.stop()
  }
}
