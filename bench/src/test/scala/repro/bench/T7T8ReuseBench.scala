package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** T7 (Fig. 6a) — ONLINE-UNION sampling time with vs without reuse of
  * warm-up samples, vs sample size.
  *
  * Paper's shape: reuse is much faster (pool checks replace per-relation
  * walks), with the gap largest on the workload with the largest union
  * (UQ1) and smaller on UQ2.
  */
class T7ReuseBench extends SparkSpec {
  private val sf = 0.04
  private val ns = Seq(100, 300)

  test("T7: reuse beats no-reuse on all workloads") {
    for (w <- Seq("UQ1", "UQ2", "UQ3")) {
      val rows = Experiments.t7Reuse(spark, w, sf, overlap = 0.3, ns, rwWalks = 600)
      Experiments.printT7(s"T7 ($w): online sampling, reuse vs no-reuse, sf=$sf", rows)
      val withR = rows.filter(_.reuse)
      val without = rows.filter(!_.reuse)
      assert(withR.map(_.sampleMs).sum < without.map(_.sampleMs).sum,
        s"$w: reuse should cut sampling time")
      assert(withR.map(_.walkAttempts).sum < without.map(_.walkAttempts).sum,
        s"$w: reuse should cut walk attempts")
      assert(withR.forall(_.poolHits > 0) && without.forall(_.poolHits == 0))
    }
  }
}

/** T8 (Fig. 6b) — time per successfully accepted sample in the regular
  * (walk) phase vs the reuse phase.
  *
  * Paper's shape: a reuse-phase sample is much cheaper than a
  * regular-phase sample.
  */
class T8ReusePhaseBench extends SparkSpec {
  private val sf = 0.04

  test("T8: per-sample cost, regular vs reuse phase") {
    val rows = Seq("UQ1", "UQ2", "UQ3").map { w =>
      Experiments.t8ReusePhase(spark, w, sf, overlap = 0.3, n = 400)
    }
    Experiments.printT8("T8: ms per accepted sample, regular vs reuse phase (N=400)", rows)
    rows.foreach { r =>
      assert(r.reuseMsPerSample < r.regularMsPerSample,
        s"${r.workload}: reuse phase (${r.reuseMsPerSample}) should be cheaper than " +
          s"regular (${r.regularMsPerSample})")
    }
  }
}
