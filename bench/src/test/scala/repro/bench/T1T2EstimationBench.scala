package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** T1 (Fig. 4a/4b) — error of the |J_i|/|U| ratio estimated by
  * HISTOGRAM-BASED(+EO join sizes), vs overlap scale, on UQ1 and UQ3.
  *
  * Paper's shape: errors are bounded and *stabilize/shrink as overlap
  * grows*; UQ3 (shorter joins, fewer of them) is estimated more
  * accurately than UQ1.
  */
class T1RatioErrorBench extends SparkSpec {
  private val sf = 0.02
  private val overlaps = Seq(0.2, 0.5, 0.8)

  test("T1: ratio-estimation error on UQ1 and UQ3") {
    val byWorkload = Seq("UQ1", "UQ3").map { w =>
      val rows = Experiments.t1RatioError(spark, w, sf, overlaps)
      Experiments.printT1(s"T1 ($w): ratio error, HISTOGRAM+EO, sf=$sf", rows)
      w -> rows
    }.toMap
    // Errors are bounded (ratios live in [0,1]); the loosest point is the
    // smallest overlap scale, where the paper too reports instability.
    byWorkload.values.flatten.foreach(r => assert(r.error <= 0.75, s"$r"))
    // Shape: the error at the largest overlap is no worse than ~the
    // smallest-overlap error (stability claim, generous slack).
    for ((w, rows) <- byWorkload) {
      val lo = rows.filter(_.overlap == overlaps.head).map(_.error).sum / 5
      val hi = rows.filter(_.overlap == overlaps.last).map(_.error).sum / 5
      info(s"$w mean error: overlap=${overlaps.head} → $lo, overlap=${overlaps.last} → $hi")
      assert(hi <= lo + 0.15, s"$w: error grew sharply with overlap ($lo → $hi)")
    }
  }
}

/** T2 (Fig. 4c/4d) — runtime of union-size estimation: HISTOGRAM-BASED vs
  * the FullJoinUnion brute force, vs overlap scale, on UQ1 and UQ3.
  *
  * Paper's shape: HISTOGRAM is significantly faster than FULLJOIN at every
  * overlap scale.
  */
class T2EstimationRuntimeBench extends SparkSpec {
  private val overlaps = Seq(0.2, 0.5, 0.8)

  test("T2: HISTOGRAM beats FULLJOIN on estimation runtime") {
    // UQ3's joins are short (2–3 relations), so the brute force needs a
    // larger scale before the asymmetry shows — as in the paper, where
    // FULLJOIN times out at scale while HISTOGRAM keeps going.
    for ((w, sf) <- Seq("UQ1" -> 0.02, "UQ3" -> 0.6)) {
      val rows = Experiments.t2EstimationRuntime(spark, w, sf, overlaps)
      Experiments.printT2(s"T2 ($w): union-size estimation runtime, sf=$sf", rows)
      val hist = rows.map(_.histMs).sum
      val full = rows.map(_.fullMs).sum
      assert(hist < full, s"$w: HISTOGRAM ($hist ms) not faster than FULLJOIN ($full ms)")
      rows.foreach(r => assert(r.histUnion > 0 && r.histUnion >= r.exactUnion * 0.05,
        s"$w overlap ${r.overlap}: estimate implausibly far below exact union size"))
    }
  }
}
