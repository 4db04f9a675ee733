package repro.exp

import repro.SparkSpec

/** Smoke tests of every experiment harness at unit-test scale: rows are
  * well-formed and the headline shape claims hold where they are scale-
  * independent. (Bench-scale shape assertions live in bench/.)
  */
class ExperimentsSpec extends SparkSpec {

  private val sf = 0.003

  test("T1: ratio-error rows cover every join × overlap point") {
    val rows = Experiments.t1RatioError(spark, "UQ1", sf, Seq(0.2, 0.6))
    assert(rows.size == 10)
    assert(rows.forall(r => r.exactRatio >= 0 && r.exactRatio <= 1))
    assert(rows.forall(r => r.estRatio >= 0 && r.estRatio <= 1.0001))
    assert(rows.forall(_.error >= 0))
  }

  test("T1 on UQ3 exercises the splitting method") {
    val rows = Experiments.t1RatioError(spark, "UQ3", sf, Seq(0.5))
    assert(rows.size == 3)
    assert(rows.forall(r => !r.estRatio.isNaN))
  }

  test("T2: estimation-runtime rows carry consistent sizes") {
    val rows = Experiments.t2EstimationRuntime(spark, "UQ1", sf, Seq(0.3))
    assert(rows.size == 1)
    val r = rows.head
    assert(r.histUnion > 0 && r.histUnion >= r.exactUnion * 0.1,
      "histogram |U| must be in a sane band of the exact size")
    assert(r.histMs >= 0 && r.fullMs >= 0)
  }

  test("T3: random walk beats histogram on ratio error (UQ1)") {
    val rows = Experiments.t3RatioErrorRw(spark, "UQ1", sf, 0.3, rwWalks = 800)
    assert(rows.size == 5)
    val histErr = rows.map(_.histError).sum / rows.size
    val rwErr = rows.map(_.rwError).sum / rows.size
    assert(rwErr <= histErr + 0.05,
      s"RW mean error $rwErr should be ≲ histogram $histErr")
  }

  test("T4: scale rows produced for every sf × method") {
    val rows = Experiments.t4ScaleData(spark, "UQ1", Seq(sf), 0.3,
      Seq("HIST+EW", "HIST+EO"), n = 60)
    assert(rows.size == 2)
    assert(rows.forall(_.totalMs > 0))
  }

  test("T5: sampling-time rows for a sample-size sweep") {
    val rows = Experiments.t5ScaleSamples(spark, "UQ2", sf, 0.3,
      Seq("HIST+EW"), ns = Seq(30, 60))
    assert(rows.size == 2)
    assert(rows.forall(_.n > 0))
  }

  test("T6: breakdown accounts for all sampling time") {
    val rows = Experiments.t6Breakdown(spark, "UQ1", sf, 0.3,
      Seq("HIST+EW", "HIST+EO"), n = 60)
    assert(rows.size == 2)
    rows.foreach { r =>
      assert(r.paramsMs >= 0 && r.acceptedMs >= 0 && r.rejectedMs >= 0)
      assert(r.accepted >= 60)
    }
    // EO pays walk rejections that EW never does
    val ew = rows.find(_.method == "HIST+EW").get
    val eo = rows.find(_.method == "HIST+EO").get
    assert(ew.eoRejected == 0 && ew.walkFailures == 0)
    assert(eo.eoRejected + eo.walkFailures > 0)
  }

  test("T7: reuse rows show pool hits only in the reuse arm") {
    val rows = Experiments.t7Reuse(spark, "UQ2", sf, 0.3, ns = Seq(40), rwWalks = 300)
    assert(rows.size == 2)
    val withReuse = rows.find(_.reuse).get
    val without = rows.find(!_.reuse).get
    assert(withReuse.poolHits > 0)
    assert(without.poolHits == 0)
    assert(withReuse.walkAttempts <= without.walkAttempts)
  }

  test("T8: per-phase sample costs are positive and reuse is cheaper") {
    val r = Experiments.t8ReusePhase(spark, "UQ2", sf, 0.3, n = 80, rwWalks = 400)
    assert(r.reuseMsPerSample > 0)
    assert(r.regularMsPerSample > 0)
  }

  test("workload dispatcher rejects unknown names") {
    assertThrows[IllegalArgumentException](Experiments.workload(spark, "UQ9", sf, 0.3))
  }

  test("makeSampler supports all four method combinations") {
    val w = Experiments.workload(spark, "UQ2", sf, 0.3)
    Seq("HIST+EW", "HIST+EO", "RW+EW", "RW+EO").foreach { m =>
      val (params, warmMs, sampler) = Experiments.makeSampler(w, m, seed = 5, rwWalks = 120)
      assert(params.unionSize > 0, m)
      assert(warmMs >= 0)
      assert(sampler.sample(10).tuples.size == 10, m)
    }
  }

  test("printTable renders aligned rows") {
    // no assertion beyond not throwing; visual format is captured in benches
    Experiments.printTable("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
  }
}
