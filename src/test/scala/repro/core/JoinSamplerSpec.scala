package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{ChiSquare, SparkSpec, ToyData}
import repro.core.join._
import repro.core.union.{FullJoinUnion, OnlineUnionSampler, RandomWalkWarmup, WarmUp}
import repro.core.walk.WanderJoin
import repro.workloads.UnionWorkloads

/** §3.2 single-join i.i.d. samplers: EW (exact weights, zero rejection)
  * and EO (extended Olken accept/reject). Correctness = exact total
  * weights, bound dominance, support containment and uniformity
  * (chi-square) against the materialized join.
  */
class JoinSamplerSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)
  private lazy val uq3 = UnionWorkloads.uq3(spark, sf = 0.004)

  test("EW total weight equals |J| exactly (toy + UQ1 + star)") {
    assert(new ExactWeightSampler(toy.joins(0)).totalWeight == 12.0)
    assert(new ExactWeightSampler(toy.joins(1)).totalWeight == 12.0)
    val j = uq1.joins.head
    val exact = new FullJoinUnion(Seq(j)).sizes.head
    assert(new ExactWeightSampler(j).totalWeight == exact.toDouble)
    val star = ToyData.toyStar(spark)
    val starExact = star.fullJoin.count()
    assert(new ExactWeightSampler(star).totalWeight == starExact.toDouble)
  }

  test("EW samples lie in the join and arrive with zero rejection") {
    val j = toy.joins.head
    val keys = new FullJoinUnion(Seq(j)).unionKeys
    val (ts, ds) = new ExactWeightSampler(j).sample(500, seed = 1)
    assert(ts.size == 500)
    assert(ds.rejected == 0 && ds.walkFailures == 0)
    assert(ts.forall(t => keys.contains(t.values)))
  }

  test("EW sampling is uniform over the join (chi-square)") {
    val j = toy.joins.head // |J| = 12
    val n = 3000
    val (ts, _) = new ExactWeightSampler(j).sample(n, seed = 2)
    val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 12, n)
    // df = 11; χ²_{0.999,11} ≈ 31.3 — generous but catches systematic bias
    assert(chi < 35.0, s"chi-square $chi over counts $counts")
  }

  test("EW sampling is uniform over a star join (chi-square)") {
    val star = ToyData.toyStar(spark)
    val size = star.fullJoin.count().toInt
    val n = 4000
    val (ts, _) = new ExactWeightSampler(star).sample(n, seed = 3)
    val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
    assert(counts.size <= size)
    val chi = ChiSquare.statistic(counts, size, n)
    val dfree = size - 1
    assert(chi < dfree + 5 * math.sqrt(2.0 * dfree) + 10, s"chi-square $chi, support $size")
  }

  test("EW handles dangling tuples (weight 0) without sampling them") {
    // toy A keys 13..20 never join B0; they must never be drawn.
    val j = toy.joins.head
    val kIdx = WanderJoin.canonCols(j).indexOf("k")
    val (ts, _) = new ExactWeightSampler(j).sample(400, seed = 4)
    assert(ts.forall(_.values(kIdx).asInstanceOf[Long] <= 12))
  }

  test("EW draws depend on the data, not its partitioning") {
    val j = uq1.joins.head.asInstanceOf[ChainJoin]
    val s = new ExactWeightSampler(j)
    val first = s.sample(300, seed = 12)._1
    assert(s.sample(300, seed = 12)._1 == first)
    val repartitioned = j.copy(rels = j.rels.map(r => Rel(r.name, r.df.repartition(7))))
    assert(new ExactWeightSampler(repartitioned).sample(300, seed = 12)._1 == first)
  }

  /** The number of Spark jobs `body` starts. */
  private def jobsDuring(body: => Unit): Int = {
    val sc = spark.sparkContext
    val groups = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
          .getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      body
      // Listener events arrive in order: once the marker job is seen, every
      // job started before it has been seen too.
      sc.setJobGroup("marker", "marker")
      sc.parallelize(Seq(1), 1).count()
      sc.clearJobGroup()
      val deadline = System.nanoTime() + 60L * 1000000000L
      while (!groups.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(groups.contains("marker"))
      groups.size - 1
    } finally sc.removeSparkListener(listener)
  }

  test("after prepare(), EW draws start no Spark job") {
    val s = new ExactWeightSampler(uq1.joins.head)
    s.prepare()
    val jobs = jobsDuring(assert(s.sample(2000, seed = 13)._1.size == 2000))
    assert(jobs == 0, s"sampling started $jobs Spark jobs")
  }

  /** UQ1's joins over its relations held in `k` partitions. */
  private def partitioned(k: Int): Seq[JoinSpec] = uq1.joins.map {
    case j: ChainJoin => j.copy(rels = j.rels.map(r => Rel(r.name, r.df.repartition(k))))
    case j => j
  }

  test("walks, EO draws and ONLINE-UNION depend on the data, not its partitioning") {
    val one = partitioned(1)
    val seven = partitioned(7)
    assert(WanderJoin.walkBatch(one.head, 500, seed = 15) == WanderJoin.walkBatch(seven.head, 500, seed = 15))
    val warm1 = WarmUp.randomWalk(one, 300, seed = 16)
    val warm7 = WarmUp.randomWalk(seven, 300, seed = 16)
    assert(warm1.params == warm7.params && warm1.batches == warm7.batches)
    assert(new OlkenSampler(one(1)).sample(200, seed = 17) == new OlkenSampler(seven(1)).sample(200, seed = 17))
    def session(joins: Seq[JoinSpec], warm: RandomWalkWarmup) = {
      val s = new OnlineUnionSampler(joins, WarmUp.histogram(joins), Some(warm), seed = 18, phi = 64)
      val res = s.sample(300)
      (res.tuples, res.stats.asInstanceOf[s.OnlineStats].reestimates.toSeq)
    }
    val (t1, r1) = session(one, warm1)
    val (t7, r7) = session(seven, warm7)
    assert(r1.nonEmpty, "no backtrack: the parameter updates were not compared")
    assert(t1 == t7 && r1 == r7)
  }

  test("after the relations are collected, walks, probes, EO and ONLINE-UNION start no Spark job") {
    val w = UnionWorkloads.uq2(spark, sf = 0.004)
    w.joins.flatMap(_.relations).distinct.foreach(_.rows)
    val init = WarmUp.histogram(w.joins)
    val jobs = jobsDuring {
      val wb = WanderJoin.walkBatch(w.joins(0), 300, seed = 19)
      assert(wb.samples.nonEmpty)
      WanderJoin.membership(w.joins(1), wb.samples)
      // a small warm-up, so its pools drain and the session refills and backtracks
      val warm = WarmUp.randomWalk(w.joins, 100, seed = 20)
      assert(new OlkenSampler(w.joins(2)).sample(100, seed = 21)._1.size == 100)
      val s = new OnlineUnionSampler(w.joins, init, Some(warm), seed = 22, phi = 64, reuse = true)
      val st = s.sample(1000).stats.asInstanceOf[s.OnlineStats]
      assert(st.poolHits > 0 && st.backtracks > 0, s"pool hits ${st.poolHits}, backtracks ${st.backtracks}")
    }
    assert(jobs == 0, s"$jobs Spark jobs")
  }

  test("EW is uniform on every UQ1 join (chi-square at the 0.999 quantile)") {
    uq1.joins.zipWithIndex.foreach { case (j, i) =>
      val keys = new FullJoinUnion(Seq(j)).unionKeys
      val s = new ExactWeightSampler(j)
      val size = s.totalWeight.toInt
      assert(size == keys.size)
      val n = 20 * size
      val (ts, _) = s.sample(n, seed = 14 + i)
      assert(ts.forall(t => keys.contains(t.values)), s"${j.name}: a draw outside the join")
      val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
      val chi = ChiSquare.statistic(counts, size, n)
      val bound = ChiSquare.quantile999(size - 1)
      assert(chi < bound, s"${j.name}: chi-square $chi over $size tuples, bound $bound")
    }
  }

  test("EW rejects trees derived from cyclic joins") {
    val tri = ToyData.toyTriangle(spark)
    assertThrows[IllegalArgumentException](new ExactWeightSampler(tri))
  }

  test("EO bound dominates |J| and matches the Olken formula") {
    val j = toy.joins.head
    val s = new OlkenSampler(j)
    // |A| = 20, max degree of k in B0 = 2 → bound = 40 ≥ 12
    assert(s.bound == 40.0)
    assert(s.bound >= new FullJoinUnion(Seq(j)).sizes.head.toDouble)
    val uq1s = new OlkenSampler(uq1.joins.head)
    assert(uq1s.bound >= new FullJoinUnion(Seq(uq1.joins.head)).sizes.head.toDouble)
  }

  test("a second EO sampler over the same join computes its bound with no Spark job") {
    val j = uq1.joins(1)
    new OlkenSampler(j).prepare()
    val jobs = jobsDuring(new OlkenSampler(j).prepare())
    assert(jobs == 0, s"the second prepare() started $jobs Spark jobs")
  }

  test("EO counts only Olken rejections, not the surplus of its last round") {
    // toy3's J0: B0 holds each k once, so W = |A| = 30 and every
    // successful walk has p(t) = 1/W and passes the Olken test. A first
    // round of 64 walks accepts more tuples than the 10 asked for.
    val j = ToyData.toyUnion3(spark).joins.head
    val s = new OlkenSampler(j)
    assert(s.bound == 30.0)
    val (ts, ds) = s.sample(10, seed = 4)
    assert(ts.size == 10)
    assert(ds.rejected == 0, s"${ds.rejected} rejections with an exact Olken test")
    assert(ds.rejectedTuples.size == ds.walkAttempts - ds.walkFailures - 10)
    assert(ds.rejectedTuples.nonEmpty, "no surplus: the test checks nothing")
  }

  test("HISTOGRAM warm-up and EW/EO prepare() collect each relation once") {
    // A fresh UQ1, so no relation has collected its rows yet.
    val w = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)
    val rels = w.joins.flatMap(_.relations).distinct
    rels.foreach(_.count)
    val jobs = jobsDuring {
      WarmUp.histogram(w.joins)
      w.joins.foreach { j => new ExactWeightSampler(j).prepare(); new OlkenSampler(j).prepare() }
    }
    assert(jobs <= rels.size, s"$jobs Spark jobs for ${rels.size} relations")
    val again = jobsDuring(WarmUp.histogram(w.joins))
    assert(again == 0, s"a second HISTOGRAM warm-up started $again Spark jobs")
  }

  test("EO samples lie in the join; rejections carry valid p(t)") {
    val j = toy.joins.head
    val keys = new FullJoinUnion(Seq(j)).unionKeys
    val (ts, ds) = new OlkenSampler(j).sample(300, seed = 5)
    assert(ts.size == 300)
    assert(ts.forall(t => keys.contains(t.values)))
    assert(ds.walkAttempts >= 300)
    assert(ds.rejectedTuples.forall(t => t.p > 0 && keys.contains(t.values)))
  }

  test("EO sampling is uniform over the join (chi-square)") {
    val j = toy.joins.head
    val n = 3000
    val (ts, _) = new OlkenSampler(j).sample(n, seed = 6)
    val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, 12, n)
    assert(chi < 35.0, s"chi-square $chi over counts $counts")
  }

  test("EO samples the cyclic triangle uniformly") {
    val tri = ToyData.toyTriangle(spark)
    val size = tri.fullJoin.count().toInt
    val n = 2500
    val (ts, _) = new OlkenSampler(tri).sample(n, seed = 7)
    val keys = new FullJoinUnion(Seq(tri)).unionKeys
    assert(ts.forall(t => keys.contains(t.values)))
    val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
    val chi = ChiSquare.statistic(counts, size, n)
    val dfree = size - 1
    assert(chi < dfree + 5 * math.sqrt(2.0 * dfree) + 10, s"chi-square $chi, support $size")
  }

  test("EW on the UQ3 acyclic join agrees with its exact size") {
    val j0 = uq3.joins.head // the star join
    val exact = j0.fullJoin.count()
    assert(new ExactWeightSampler(j0).totalWeight == exact.toDouble)
  }

  test("zero-draw requests are free") {
    val s = new ExactWeightSampler(toy.joins.head)
    val (ts, ds) = s.sample(0, seed = 8)
    assert(ts.isEmpty && ds.walkAttempts == 0)
    val (ts2, _) = new OlkenSampler(toy.joins.head).sample(0, seed = 9)
    assert(ts2.isEmpty)
  }
}
