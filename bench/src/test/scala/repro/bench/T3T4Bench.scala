package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** T3 (Fig. 5a) — per-join |J_i|/|U| ratio error on UQ1: HISTOGRAM+EO vs
  * RANDOM-WALK.
  *
  * Paper's shape: RANDOM-WALK is near-exact ("error close to zero for all
  * joins") and beats HISTOGRAM across the board.
  */
class T3RatioErrorRwBench extends SparkSpec {

  test("T3: RANDOM-WALK estimates dominate HISTOGRAM estimates") {
    val rows = Experiments.t3RatioErrorRw(spark, "UQ1", sf = 0.04, overlap = 0.3,
      rwWalks = 1200)
    Experiments.printT3("T3 (UQ1): ratio error, HISTOGRAM+EO vs RANDOM-WALK", rows)
    val histErr = rows.map(_.histError).sum / rows.size
    val rwErr = rows.map(_.rwError).sum / rows.size
    info(s"mean error: HIST $histErr vs RW $rwErr")
    assert(rwErr < histErr, s"RW ($rwErr) should beat HISTOGRAM ($histErr)")
    assert(rwErr < 0.08, s"RW error should be close to zero, got $rwErr")
  }
}

/** T4 (Fig. 5b) — SetUnion sampling time vs data scale on UQ1 for
  * HIST+EO, HIST+EW and RW+EW.
  *
  * Paper's shape: sampling time grows with data size; EO scales worse
  * than EW (walk rejections grow with relation fanout); the choice of
  * warm-up (HIST vs RW) barely affects sampling efficiency under EW.
  */
class T4ScaleDataBench extends SparkSpec {

  test("T4: sampling time vs data scale") {
    val sfs = Seq(0.02, 0.04, 0.08)
    val rows = Experiments.t4ScaleData(spark, "UQ1", sfs, overlap = 0.3,
      Seq("HIST+EO", "HIST+EW", "RW+EW"), n = 300)
    Experiments.printT4("T4 (UQ1): sampling time vs data scale", rows)
    def sampleMs(m: String, sf: Double) =
      rows.find(r => r.method == m && r.sf == sf).get.sampleMs
    // EO pays for scale much more than EW at the largest sf.
    assert(sampleMs("HIST+EO", 0.08) > sampleMs("HIST+EW", 0.08),
      "EO sampling should be slower than EW at the largest scale")
    // Warm-up choice has little impact on EW sampling time (2x slack).
    val ewH = sampleMs("HIST+EW", 0.08)
    val ewR = sampleMs("RW+EW", 0.08)
    assert(math.max(ewH, ewR) <= 3.0 * math.min(ewH, ewR) + 2000,
      s"EW sampling time should be warm-up-agnostic ($ewH vs $ewR)")
  }
}
