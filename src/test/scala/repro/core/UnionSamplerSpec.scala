package repro.core

import repro.{BernoulliUnionSampler, ChiSquare, DisjointUnionSampler, SparkSpec, ToyData}
import repro.core.join.{DrawStats, ExactWeightSampler, JoinTupleSampler}
import repro.core.union._
import repro.core.walk.JTuple
import repro.workloads.UnionWorkloads

import scala.collection.mutable.ArrayBuffer

/** Algorithm 1 — set-union sampling. Uniformity is verified with exact
  * parameters (where Theorem 1 applies verbatim) and sanity-checked with
  * estimated parameters; support containment and cover bookkeeping are
  * verified for every instantiation.
  */
class UnionSamplerSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val toy3 = ToyData.toyUnion3(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)

  test("samples lie in the union (EW, exact params)") {
    val fju = new FullJoinUnion(toy.joins)
    val s = UnionSampler(toy.joins, fju.params, "EW", seed = 1)
    val res = s.sample(400)
    assert(res.tuples.size == 400)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
  }

  test("set-union sampling is uniform with exact parameters (chi-square)") {
    val fju = new FullJoinUnion(toy.joins) // |U| = 16
    val n = 4000
    val res = UnionSampler(toy.joins, fju.params, "EW", seed = 2).sample(n)
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 16, n)
    // df = 15; χ²_{0.999,15} ≈ 37.7
    assert(chi < 42.0, s"chi-square $chi over $counts")
  }

  test("uniform across three overlapping joins with exact parameters") {
    val fju = new FullJoinUnion(toy3.joins) // |U| = 24
    val n = 6000
    val res = UnionSampler(toy3.joins, fju.params, "EW", seed = 3).sample(n)
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 24, n)
    assert(chi < 55.0, s"chi-square $chi") // df = 23; χ²_{0.999,23} ≈ 49.7
  }

  test("Alg. 1 with exact parameters and EW is uniform over the UQ1 union (0.999 quantile)") {
    val fju = new FullJoinUnion(uq1.joins)
    val size = fju.unionKeys.size
    val n = 20 * size
    val res = UnionSampler(uq1.joins, fju.params, "EW", seed = 9).sample(n)
    assert(res.tuples.size == n)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, size, n)
    val bound = ChiSquare.quantile999(size - 1)
    assert(chi < bound, s"chi-square $chi over $size tuples, bound $bound")
  }

  test("overlap tuples are owned by the earliest cover join") {
    val fju = new FullJoinUnion(toy.joins)
    val res = UnionSampler(toy.joins, fju.params, "EW", seed = 4).sample(2000)
    val overlapKeys = fju.joinDfs.reduceLeft(_ intersect _).collect().map(_.toSeq.toIndexedSeq).toSet
    // after full bookkeeping, every overlap tuple kept must be attributed to J0
    res.tuples.filter { case (t, _) => overlapKeys.contains(t.values) }.foreach {
      case (_, j) => assert(j == 0, "overlap tuple attributed to a later join survived")
    }
    assert(res.stats.rejectedDup > 0, "expected some duplicate rejections on 50% overlap")
  }

  test("works with EO join sampling too (support + rough uniformity)") {
    val fju = new FullJoinUnion(toy.joins)
    val n = 2500
    val res = UnionSampler(toy.joins, fju.params, "EO", seed = 5).sample(n)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 16, n)
    assert(chi < 42.0, s"chi-square $chi")
    assert(res.stats.walkAttempts > 0 && res.stats.eoRejected >= 0)
  }

  test("histogram-estimated parameters still yield only union tuples") {
    val params = WarmUp.histogram(toy.joins)
    val fju = new FullJoinUnion(toy.joins)
    val res = UnionSampler(toy.joins, params, "EW", seed = 6).sample(500)
    assert(res.tuples.size == 500)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
  }

  test("random-walk-estimated parameters sample the UQ1 union") {
    val w = WarmUp.randomWalk(uq1.joins, walksPerJoin = 400, seed = 7)
    val res = UnionSampler(uq1.joins, w.params, "EW", seed = 8).sample(300)
    assert(res.tuples.size == 300)
    val fju = new FullJoinUnion(uq1.joins)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
  }

  test("sampler statistics are internally consistent") {
    val fju = new FullJoinUnion(toy.joins)
    val res = UnionSampler(toy.joins, fju.params, "EW", seed = 9).sample(1000)
    val st = res.stats
    assert(st.accepted >= 1000)
    // buffered draws may leave unconsumed tuples behind
    assert(st.joinDraws >= st.accepted + st.rejectedDup)
    assert(st.acceptedMs + st.rejectedMs == st.drawMs + st.bookMs)
    assert(st.bookNs > 0)
    assert(st.revisionRemoved >= 0 && st.revisions >= 0)
  }

  test("cost stays within the N + N log N regime (Theorem 2, generous)") {
    val fju = new FullJoinUnion(toy3.joins)
    val n = 2000
    val res = UnionSampler(toy3.joins, fju.params, "EW", seed = 10).sample(n)
    val bound = 4.0 * (n + n * math.log(n)) // constant-factor headroom
    assert(res.stats.joinDraws <= bound,
      s"ψ=${res.stats.joinDraws} exceeds ${bound.toInt}")
  }

  test("disjoint-union sampling is uniform over the multiset") {
    val fju = new FullJoinUnion(toy.joins)
    val samplers = toy.joins.map(new repro.core.join.ExactWeightSampler(_)).toIndexedSeq
    val n = 4000
    val res = new DisjointUnionSampler(toy.joins, fju.params, samplers, seed = 11).sample(n)
    assert(res.size == n)
    // each of the 24 (J0 ⊎ J1) tuple slots has probability 1/24; the 8
    // overlap values appear twice → expected frequency 2/24.
    val counts = res.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val overlap = fju.joinDfs.reduceLeft(_ intersect _).collect().map(_.toSeq.toIndexedSeq).toSet
    val expOverlap = 2.0 * n / 24
    val expPrivate = 1.0 * n / 24
    counts.foreach { case (k, c) =>
      val exp = if (overlap.contains(k)) expOverlap else expPrivate
      assert(math.abs(c - exp) < 6 * math.sqrt(exp), s"key $k: $c vs $exp")
    }
  }

  test("Bernoulli union sampling is uniform with exact parameters") {
    val fju = new FullJoinUnion(toy.joins)
    val samplers = toy.joins.map(new repro.core.join.ExactWeightSampler(_)).toIndexedSeq
    val n = 4000
    val res = new BernoulliUnionSampler(toy.joins, fju.params, samplers, seed = 21).sample(n)
    assert(res.tuples.size == n)
    assert(res.tuples.forall { case (t, _) => fju.unionKeys.contains(t.values) })
    val counts = res.tuples.groupBy(_._1.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 16, n)
    assert(chi < 42.0, s"chi-square $chi")
  }

  test("Bernoulli baseline pays substantial overlap rejections (§3.1)") {
    // With exact parameters the *expected* rejections per accept coincide
    // for both selections (both equal Σ_j (|J_j|−|J'_j|)/|U|); the paper's
    // efficiency argument is about estimated parameters and delay. Here we
    // verify the baseline's overlap rejections are real and of the same
    // order as the cover-based sampler's on a 50%-overlap workload.
    val fju = new FullJoinUnion(toy.joins)
    val n = 1500
    val bSamplers = toy.joins.map(new repro.core.join.ExactWeightSampler(_)).toIndexedSeq
    val b = new BernoulliUnionSampler(toy.joins, fju.params, bSamplers, seed = 22).sample(n)
    val a = UnionSampler(toy.joins, fju.params, "EW", seed = 22).sample(n)
    // expectation: 0.5 rejections per accepted tuple (= |J1∩J0|/|U|)
    assert(b.stats.rejectedDup > n / 4, s"Bernoulli rejections ${b.stats.rejectedDup}")
    val ratio = b.stats.rejectedDup.toDouble / math.max(1, a.stats.rejectedDup)
    assert(ratio > 0.5 && ratio < 2.0,
      s"rejection counts should be comparable: ${b.stats.rejectedDup} vs ${a.stats.rejectedDup}")
  }

  /** A join sampler that records the seed of every call and its draws. */
  private final class Recording(inner: JoinTupleSampler) extends JoinTupleSampler {
    val seeds = ArrayBuffer.empty[Long]
    val draws = ArrayBuffer.empty[JTuple]
    def join: JoinSpec = inner.join
    def prepare(): Unit = inner.prepare()
    def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
      val out = inner.sample(n, seed)
      seeds += seed; draws ++= out._1
      out
    }
  }

  test("every join draws from its own stream") {
    val w = UnionWorkloads.uq2(spark, sf = 0.004)
    val params = WarmUp.histogram(w.joins)
    val rec = w.joins.map(j => new Recording(new ExactWeightSampler(j))).toIndexedSeq
    new UnionSampler(w.joins, params, rec, seed = 5).sample(3000)
    val seeds = rec.flatMap(_.seeds)
    assert(seeds.distinct.size == seeds.size, s"a seed is used twice: $seeds")
    // Independent k-th draws of J0 and J1 are the same tuple with
    // probability |O_01| / (|J0|·|J1|), about 5 times in 1,500 pairs.
    val (d0, d1) = (rec(0).draws, rec(1).draws)
    val pairs = math.min(d0.size, d1.size)
    val same = (0 until pairs).count(k => d0(k).values == d1(k).values)
    val expect = pairs * params.o(Set(0, 1)) / (params.o(Set(0)) * params.o(Set(1)))
    assert(pairs > 500 && same < 25, s"$same of $pairs k-th draws coincide, ~$expect expected")
  }

  test("null and \"null\" are different tuples") {
    import spark.implicits._
    val b = Rel("nn_b", Seq((1L, 10L)).toDF("k", "bval"))
    def a(name: String, tag: String) = Rel(name, Seq[(Long, String)]((1L, tag)).toDF("k", "atag"))
    val joins = Seq(ChainJoin("nn_J0", Seq(a("nn_a0", null), b), Seq("k")),
      ChainJoin("nn_J1", Seq(a("nn_a1", "null"), b), Seq("k")))
    val fju = new FullJoinUnion(joins)
    assert(fju.unionSize == 2)
    // canonical columns: atag, bval, k
    val (t0, t1) = (JTuple(IndexedSeq(null, 10L, 1L), 1.0), JTuple(IndexedSeq("null", 10L, 1L), 1.0))
    val res = UnionSampler(joins, fju.params, "EW", seed = 23).sample(200)
    assert(res.tuples.map { case (t, j) => (t.values, j) }.toSet == Set((t0.values, 0), (t1.values, 1)))
    val book = new CoverBook(new UnionStats)
    assert(book.offer(t1, 1) && book.offer(t0, 0))
    assert(book.size == 2 && book.owners == Map(t0.values -> 0, t1.values -> 1))
  }

  test("invalid sampler kind is rejected") {
    val fju = new FullJoinUnion(toy.joins)
    assertThrows[IllegalArgumentException](UnionSampler(toy.joins, fju.params, "nope", 1))
  }
}
