package repro.core

import repro.{ChiSquare, SparkSpec, ToyData}
import repro.core.join.OlkenSampler
import repro.core.union.FullJoinUnion
import repro.core.walk.WanderJoin
import repro.workloads.UnionWorkloads

/** §8.3 selection predicates: push-down (UQ2's construction) and
  * enforce-during-sampling (the OlkenSampler predicate).
  */
class SelectionPredicateSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)

  test("push-down: UQ2 predicates shrink the part relation before joining") {
    val w = UnionWorkloads.uq2(spark, sf = 0.003)
    val parts = w.joins.map(_.relations.last)
    // three different filters of the same base part table
    assert(parts.map(_.count).distinct.size >= 2)
    val j = w.joins.head
    import org.apache.spark.sql.functions.col
    assert(j.fullJoin.filter(col("p_size") > 60).count() == 0,
      "pushed-down predicate must constrain the join result")
  }

  test("during-sampling: predicate-filtered EO samples are uniform over σ(J)") {
    val j = toy.joins.head
    val kIdx = WanderJoin.canonCols(j).indexOf("k")
    val pred = (t: repro.core.walk.JTuple) => t.values(kIdx).asInstanceOf[Long] <= 6
    val s = new OlkenSampler(j, Some(pred))
    val n = 2000
    val (ts, ds) = s.sample(n, seed = 3)
    assert(ts.size == n)
    assert(ts.forall(pred), "every sample must satisfy the predicate")
    // σ(J) = keys 1..6: 1..4 appear twice (two payloads), 5..6 once → 10 tuples
    val counts = ts.groupBy(_.values).map { case (k, v) => k -> v.size }
    assert(counts.size <= 10)
    val chi = ChiSquare.statistic(counts, 10, n)
    assert(chi < 32.0, s"chi-square $chi") // df = 9; χ²_{0.999,9} ≈ 27.9
    assert(ds.rejected > 0, "non-matching tuples must be rejected")
  }

  test("predicate-rejected tuples never reach the reuse pool") {
    val j = toy.joins.head
    val kIdx = WanderJoin.canonCols(j).indexOf("k")
    val pred = (t: repro.core.walk.JTuple) => t.values(kIdx).asInstanceOf[Long] <= 6
    val (_, ds) = new OlkenSampler(j, Some(pred)).sample(300, seed = 4)
    assert(ds.rejectedTuples.forall(pred),
      "pool-eligible rejections must satisfy the predicate")
  }

  test("push-down and during-sampling agree on the sampled support") {
    import org.apache.spark.sql.functions.col
    val j = toy.joins.head.asInstanceOf[ChainJoin]
    val filtered = ChainJoin("toy_J0_f",
      Seq(j.rels.head.copy(name = "a_f", raw = j.rels.head.df.filter(col("k") <= 6)),
        j.rels(1)), j.joinAttrs)
    val pushKeys = new FullJoinUnion(Seq(filtered)).unionKeys
    val kIdx = WanderJoin.canonCols(j).indexOf("k")
    val pred = (t: repro.core.walk.JTuple) => t.values(kIdx).asInstanceOf[Long] <= 6
    val (ts, _) = new OlkenSampler(j, Some(pred)).sample(500, seed = 5)
    assert(ts.map(_.values).toSet.subsetOf(pushKeys))
  }
}
