package repro.core

import repro.{ChiSquare, SparkSpec, ToyData}
import repro.core.union._
import repro.core.walk.WalkBatch
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
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
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
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
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

  test("without a warm-up every join is sampled and the sample is uniform (chi-square)") {
    // A join not walked yet has no walk estimate: a re-estimate keeps its
    // |J_j| and the overlaps anchored at it, instead of setting them to 0
    // and never selecting the join again.
    Seq(toy, ToyData.toyUnion3(spark)).foreach { w =>
      val size = new FullJoinUnion(w.joins).unionSize.toInt
      val n = 20 * size
      val s = new OnlineUnionSampler(w.joins, WarmUp.histogram(w.joins), None, seed = 13, phi = 64)
      val res = s.sample(n)
      val st = res.stats.asInstanceOf[s.OnlineStats]
      assert(st.backtracks > 0, s"${w.name}: no re-estimate happened")
      assert(st.estimatesKept > 0, s"${w.name}: every join was walked before the first re-estimate")
      val perJoin = res.tuples.groupBy(_._2).map { case (j, v) => j -> v.size }
      assert(w.joins.indices.forall(perJoin.contains), s"${w.name}: samples per join $perJoin")
      val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
      val chi = ChiSquare.statistic(counts, size, n)
      val bound = ChiSquare.quantile999(size - 1)
      assert(chi < bound, s"${w.name}: chi-square $chi over $size tuples, bound $bound")
    }
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
    // With exact parameters, |J_j| = 12 and a walk's p(t) is 1/40 or 1/20
    // on toy, so R = 1/(p(t)·|J_j|) is 10/3 or 5/3: every pool draw is
    // accepted, with ⌊R⌋ or ⌊R⌋+1 instances.
    val fju = new FullJoinUnion(toy.joins)
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 500, seed = 9)
    val s = new OnlineUnionSampler(toy.joins, fju.params, Some(warm), seed = 10,
      phi = Int.MaxValue)
    val res = s.sample(200)
    val st = res.stats.asInstanceOf[s.OnlineStats]
    assert(st.poolHits + st.poolRejected > 0)
  }

  test("reuse pools hold only warm-up walks") {
    // Pops are drawn without replacement, so a pool that holds warm-up
    // walks only serves at most as many pops as the warm-up had successes.
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 1500, seed = 3)
    val fju = new FullJoinUnion(toy.joins)
    val s = new OnlineUnionSampler(toy.joins, fju.params, Some(warm), seed = 4,
      phi = Int.MaxValue)
    val st = s.sample(4000).stats.asInstanceOf[s.OnlineStats]
    val warmWalks = warm.batches.map(_.samples.size).sum
    assert(st.walkAttempts > 0, "the pools never drained, so no refill was tested")
    assert(st.poolHits + st.poolRejected <= warmWalks,
      s"${st.poolHits + st.poolRejected} pool pops from $warmWalks warm-up walks")
  }

  test("every refill walk is recorded exactly once") {
    // No predicate: each walk attempt fails, is accepted or is rejected,
    // and accepted tuples still buffered at the end count too.
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 100, seed = 11)
    val s = new OnlineUnionSampler(toy.joins, WarmUp.histogram(toy.joins), Some(warm),
      seed = 12, phi = 64)
    val st = s.sample(600).stats.asInstanceOf[s.OnlineStats]
    assert(st.walkAttempts > 0, "no refill happened")
    assert(st.walksRecorded == st.walkAttempts,
      s"${st.walksRecorded} walks recorded of ${st.walkAttempts} attempted")
  }

  test("re-estimates probe only new walks and give the parameters of a full re-probe") {
    // Membership does not change, so the tables a session keeps (seeded
    // from the warm-up, extended by each re-estimate's new walks) must give
    // the parameters that probing every walk again gives.
    val w = ToyData.toyUnion3(spark)
    val warm = WarmUp.randomWalk(w.joins, walksPerJoin = 200, seed = 14)
    val init = WarmUp.histogram(w.joins)
    val s = new OnlineUnionSampler(w.joins, init, Some(warm), seed = 15, phi = 64)
    val st = s.sample(600).stats.asInstanceOf[s.OnlineStats]
    assert(st.reestimates.size > 1, s"${st.reestimates.size} re-estimates")
    st.reestimates.foldLeft(init) { (prev, r) =>
      val batches = w.joins.indices.map(j => WalkBatch(s.walks(j).take(r.walked(j)), r.recorded(j)))
      val full = WarmUp.paramsFrom(w.joins.size, r.sizes, batches,
        WarmUp.memberships(w.joins, batches), Some(prev))
      assert(r.params == full)
      r.params
    }
  }

  test("pool copies cut at MaxCopies are counted") {
    val fju = new FullJoinUnion(toy.joins)
    val warm = WarmUp.randomWalk(toy.joins, walksPerJoin = 500, seed = 9)
    def capped(params: UnionParams): Int = {
      val s = new OnlineUnionSampler(toy.joins, params, Some(warm), seed = 10,
        phi = Int.MaxValue)
      s.sample(200).stats.asInstanceOf[s.OnlineStats].copiesCapped
    }
    // R ≤ 10/3 with exact sizes; scaling every overlap by 1/100 keeps the
    // α_j but lifts R to 1000/3, far above MaxCopies.
    val shrunk = UnionParams(fju.params.n, fju.params.overlaps.map { case (d, o) => d -> o / 100 })
    assert(shrunk.alphas.zip(fju.params.alphas).forall { case (a, b) => math.abs(a - b) < 1e-12 })
    assert(capped(fju.params) == 0)
    assert(capped(shrunk) > 0)
  }
}
