package repro.core

import repro.{ChiSquare, SparkSpec, ToyData}
import repro.core.union._
import repro.workloads.UnionWorkloads

/** Algorithm 2 — online union sampling with reuse and backtracking. */
class OnlineUnionSamplerSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)

  test("samples lie in the union; pools are actually consumed") {
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 600, seed = 1)
    val init = WarmUp.histogram(toy.joins)
    val s = new OnlineUnionSampler(toy.joins, init, Some(warm), seed = 2)
    val res = s.sample(600)
    val fju = new FullJoinUnion(toy.joins)
    assert(res.tuples.size == 600)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.key) })
    val st = res.stats.asInstanceOf[s.OnlineStats]
    assert(st.poolHits > 0, "reuse pools were never hit")
  }

  test("reuse keeps the sample roughly uniform (chi-square, exact init)") {
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 1500, seed = 3)
    val fju = new FullJoinUnion(toy.joins)
    val s = new OnlineUnionSampler(toy.joins, fju.params, Some(warm), seed = 4,
      phi = Int.MaxValue) // no backtracking: isolate the reuse path
    val n = 4000
    val res = s.sample(n)
    val counts = res.tuples.groupBy(_._1.key).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 16, n)
    // reuse acceptance uses estimated |J_j|; allow a wider band than Alg 1
    assert(chi < 80.0, s"chi-square $chi over $counts")
  }

  test("backtracking updates parameters and prunes the sample") {
    val init = WarmUp.histogram(toy.joins) // biased upward on purpose
    val s = new OnlineUnionSampler(toy.joins, init, None, seed = 5, phi = 64, gamma = 0.99)
    val res = s.sample(400)
    val st = res.stats.asInstanceOf[s.OnlineStats]
    assert(st.backtracks > 0, "expected at least one backtracking round")
    assert(res.tuples.size == 400)
  }

  test("without reuse the sampler still works (pools disabled)") {
    val init = WarmUp.histogram(toy.joins)
    val s = new OnlineUnionSampler(toy.joins, init, None, seed = 6, reuse = false)
    val res = s.sample(300)
    val st = res.stats.asInstanceOf[s.OnlineStats]
    assert(st.poolHits == 0)
    assert(res.tuples.size == 300)
  }

  test("reuse reduces walk attempts vs no-reuse on UQ1") {
    val warm = WarmUp.randomWalk(uq1.joins, walksPerJoin = 800, seed = 7)
    val init = WarmUp.histogram(uq1.joins)
    val withReuse = new OnlineUnionSampler(uq1.joins, init, Some(warm), seed = 8,
      phi = Int.MaxValue)
    val without = new OnlineUnionSampler(uq1.joins, init, None, seed = 8,
      phi = Int.MaxValue)
    val n = 250
    val a = withReuse.sample(n).stats
    val b = without.sample(n).stats
    assert(a.walkAttempts < b.walkAttempts,
      s"reuse ${a.walkAttempts} walk attempts vs ${b.walkAttempts} without")
  }

  test("pool acceptance ratio emits extra instances only when R > 1") {
    // With exact parameters and exact p = 1/|J|, R = 1 exactly: every pool
    // draw is accepted exactly once.
    val fju = new FullJoinUnion(toy.joins)
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 500, seed = 9)
    val s = new OnlineUnionSampler(toy.joins, fju.params, Some(warm), seed = 10,
      phi = Int.MaxValue)
    val res = s.sample(200)
    val st = res.stats.asInstanceOf[s.OnlineStats]
    assert(st.poolHits + st.poolRejected > 0)
  }
}
