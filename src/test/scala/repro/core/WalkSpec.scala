package repro.core

import repro.{SparkSpec, ToyData}
import repro.core.union.{FullJoinUnion, WarmUp}
import repro.core.walk._
import repro.workloads.UnionWorkloads

/** §6 random walks: HT size estimation (convergence, online updates, CI)
  * and Eq. 2 overlap estimation.
  */
class WalkSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)

  test("walks return only genuine join tuples") {
    val j = toy.joins.head
    val fju = new FullJoinUnion(Seq(j))
    val keys = fju.unionKeys
    val wb = WanderJoin.walkBatch(j, 300, seed = 1)
    assert(wb.samples.nonEmpty)
    assert(wb.samples.forall(t => keys.contains(t.values)))
  }

  test("walk probabilities are exact on a 2-relation chain") {
    // p(t) = 1/|A| · 1/d_B0(k): toy A has 20 rows; B0 holds keys 1..4
    // twice (shared + private payloads) and keys 5..8 once.
    val wb = WanderJoin.walkBatch(toy.joins.head, 200, seed = 2)
    val kIdx = WanderJoin.canonCols(toy.joins.head).indexOf("k")
    assert(wb.samples.nonEmpty)
    wb.samples.foreach { t =>
      val k = t.values(kIdx).asInstanceOf[Long]
      val d = if (k <= 4) 2.0 else 1.0
      assert(math.abs(t.p - 1.0 / (20 * d)) < 1e-12, s"k=$k p=${t.p}")
    }
  }

  test("failed walks are counted, not returned") {
    // Keys 13..20 of toy A have no B0 row → ~40% of walks die.
    val wb = WanderJoin.walkBatch(toy.joins.head, 400, seed = 3)
    assert(wb.failures > 0)
    assert(wb.samples.size + wb.failures == 400)
  }

  test("HT size estimate converges to |J| (toy: exact by symmetry)") {
    // With uniform p = 1/20 and 12 joinable root tuples the HT estimate is
    // unbiased with small variance; 2000 walks pin it tightly.
    val wb = WanderJoin.walkBatch(toy.joins.head, 2000, seed = 4)
    assert(math.abs(wb.sizeEstimate - 12.0) < 1.5, s"got ${wb.sizeEstimate}")
  }

  test("HT size estimate converges on a deeper chain (UQ1 join)") {
    val j = uq1.joins.head
    val exact = new FullJoinUnion(Seq(j)).sizes.head.toDouble
    val wb = WanderJoin.walkBatch(j, 4000, seed = 5)
    val rel = math.abs(wb.sizeEstimate - exact) / exact
    assert(rel < 0.35, s"estimate ${wb.sizeEstimate} vs exact $exact (rel err $rel)")
  }

  test("walks on the cyclic triangle read the residual key from earlier siblings") {
    // The residual t(c, a) joins on c, from the sibling s, and a, from the
    // root r: every walk that survives is a triangle tuple.
    val tri = ToyData.toyTriangle(spark)
    val keys = new FullJoinUnion(Seq(tri)).unionKeys
    val wb = WanderJoin.walkBatch(tri, 4000, seed = 6)
    assert(wb.failures > 0 && wb.samples.nonEmpty)
    assert(wb.samples.forall(t => keys.contains(t.values)))
    val rel = math.abs(wb.sizeEstimate - keys.size) / keys.size
    assert(rel < 0.1, s"estimate ${wb.sizeEstimate} vs exact ${keys.size}")
  }

  test("WalkStats implements the online update formula exactly") {
    val s = new WalkStats
    val fs = Seq(4.0, 0.0, 10.0, 2.0, 8.0, 0.0, 5.0)
    var manual = 0.0
    fs.zipWithIndex.foreach { case (f, i) =>
      s.add(f)
      manual = manual + (f - manual) / (i + 1) // the paper's incremental form
      assert(math.abs(s.mean - manual) < 1e-12)
    }
    val mean = fs.sum / fs.size
    val varr = fs.map(f => (f - mean) * (f - mean)).sum / (fs.size - 1)
    assert(math.abs(s.variance - varr) < 1e-12)
    assert(s.ciHalfWidth(1.96) > 0)
  }

  test("CI half-width shrinks as walks accumulate") {
    val s = new WalkStats
    val rng = new java.util.Random(7)
    (0 until 100).foreach(_ => s.add(rng.nextDouble() * 10))
    val w1 = s.ciHalfWidth()
    (0 until 900).foreach(_ => s.add(rng.nextDouble() * 10))
    assert(s.ciHalfWidth() < w1)
  }

  test("Eq. 2: membership fraction recovers the exact overlap ratio (toy)") {
    val j0 = toy.joins(0)
    val wb = WanderJoin.walkBatch(j0, 3000, seed = 8)
    val memb = WanderJoin.membership(toy.joins(1), wb.samples)
    val pHat = RandomWalkOverlap.membershipFraction(wb.samples, memb)
    // exact |O|/|J0| = 8/12
    assert(math.abs(pHat - 8.0 / 12.0) < 0.08, s"pHat $pHat")
    val est = RandomWalkOverlap.overlapEstimate(wb.sizeEstimate, pHat)
    assert(math.abs(est - 8.0) < 2.0, s"overlap estimate $est")
  }

  test("Eq. 3 variance and CI are finite and shrink with n") {
    val s = new WalkStats
    (1 to 50).foreach(i => s.add(i.toDouble))
    val ci50 = RandomWalkOverlap.ciHalfWidth(s, 0.4)
    (1 to 450).foreach(i => s.add((i % 50).toDouble))
    val ci500 = RandomWalkOverlap.ciHalfWidth(s, 0.4)
    assert(ci50 > 0 && ci500 > 0 && ci500 < ci50)
    assert(math.abs(RandomWalkOverlap.overlapVariance(s, 0.0)) < 1e-9)
  }

  test("random-walk warm-up estimates all parameters of the toy union") {
    val w = WarmUp.randomWalk(toy.joins, walksPerJoin = 2500, seed = 9)
    val fju = new FullJoinUnion(toy.joins)
    assert(math.abs(w.params.joinSizes(0) - 12.0) < 2.0)
    assert(math.abs(w.params.joinSizes(1) - 12.0) < 2.0)
    assert(math.abs(w.params.o(Set(0, 1)) - 8.0) < 2.5)
    assert(math.abs(w.params.unionSize - fju.unionSize) < 4.0)
    assert(w.batches.size == 2 && w.batches.forall(_.samples.nonEmpty))
  }

  test("adaptive warm-up stops at the CI target or the walk cap (§6.1)") {
    val tight = WarmUp.randomWalkAdaptive(toy.joins, epsilon = 0.15, batch = 300,
      maxWalks = 3000, seed = 11)
    tight.batches.foreach { b =>
      assert(b.requested <= 3000)
      assert(b.samples.nonEmpty)
    }
    // a looser target needs no more walks than a tighter one
    val loose = WarmUp.randomWalkAdaptive(toy.joins, epsilon = 0.5, batch = 300,
      maxWalks = 3000, seed = 11)
    loose.batches.zip(tight.batches).foreach { case (l, t) =>
      assert(l.requested <= t.requested)
    }
    // parameters remain sane
    assert(tight.params.unionSize > 0)
    assert(math.abs(tight.params.joinSizes(0) - 12.0) < 3.0)
  }

  test("walk batch of zero walks is empty") {
    val wb = WanderJoin.walkBatch(toy.joins.head, 0, seed = 10)
    assert(wb.samples.isEmpty && wb.requested == 0 && wb.sizeEstimate == 0.0)
  }
}
