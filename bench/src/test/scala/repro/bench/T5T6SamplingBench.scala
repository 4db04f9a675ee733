package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** T5 (Fig. 5c/5d/5e) — sampling time vs sample size on UQ1/UQ2/UQ3 for
  * HIST+EW, HIST+EO and RW+EW.
  *
  * Paper's shape: time grows with N; EW ≈ identical under either warm-up;
  * EO is slower than EW (walk rejections); HIST warm-up is cheaper than
  * RW warm-up.
  */
class T5ScaleSamplesBench extends SparkSpec {
  private val sf = 0.04
  private val ns = Seq(100, 300, 800)

  test("T5: sampling time vs sample size on all three workloads") {
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t5ScaleSamples(spark, w, sf, overlap = 0.3,
        Seq("HIST+EW", "HIST+EO", "RW+EW"), ns)
      Experiments.printT5(s"T5 ($w): sampling time vs sample size, sf=$sf", rows)
      def t(m: String, n: Int) = rows.find(r => r.method == m && r.n == n).get
      // time grows with N (cumulative draws; generous: largest > smallest)
      Seq("HIST+EW", "HIST+EO", "RW+EW").foreach { m =>
        assert(t(m, 800).sampleMs + 50 >= t(m, 100).sampleMs,
          s"$w/$m: sampling time did not grow with N")
      }
      // HIST warm-up is cheaper than RW warm-up
      assert(t("HIST+EW", 100).warmupMs < t("RW+EW", 100).warmupMs,
        s"$w: HIST warm-up should undercut RW warm-up")
    }
  }
}

/** T6 (Fig. 5f/5g/5h) — runtime breakdown (parameter estimation /
  * accepted answers / rejected answers) per workload and method.
  *
  * Paper's shape: EO spends substantial time on rejected answers; EW
  * rejects nothing at the join level; accepted-answer time is similar
  * across instantiations; duplicate rejection is minor.
  */
class T6BreakdownBench extends SparkSpec {
  private val sf = 0.04

  test("T6: runtime breakdown per workload and method") {
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t6Breakdown(spark, w, sf, overlap = 0.3,
        Seq("HIST+EW", "HIST+EO", "RW+EW"), n = 400)
      Experiments.printT6(s"T6 ($w): time breakdown, N=400, sf=$sf", rows)
      val ew = rows.find(_.method == "HIST+EW").get
      val eo = rows.find(_.method == "HIST+EO").get
      assert(ew.eoRejected == 0 && ew.walkFailures == 0,
        s"$w: EW must have zero join-level rejections")
      assert(eo.eoRejected + eo.walkFailures > 0,
        s"$w: EO must pay join-level rejections")
      assert(eo.rejectedMs >= ew.rejectedMs,
        s"$w: EO rejected-time should dominate EW's")
    }
  }
}
