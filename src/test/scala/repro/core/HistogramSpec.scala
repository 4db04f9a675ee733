package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.{Oracle, SparkSpec, ToyData}
import repro.core.histogram.{ChainForm, HistogramOverlap, Splitter}
import repro.core.join.OlkenSampler
import repro.core.union.{FullJoinUnion, UnionSampler, WarmUp}
import repro.workloads.UnionWorkloads

import scala.jdk.CollectionConverters._

/** §5 degree statistics (a relation's key groups), Theorem 4 overlap
  * bounds, §8.1 templates and the splitting method — bounds are checked
  * for dominance over exact values from FullJoinUnion, and statistics
  * against DuckDB.
  */
class HistogramSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val toy3 = ToyData.toyUnion3(spark)
  private lazy val uq1 = UnionWorkloads.uq1(spark, sf = 0.004, overlap = 0.3)
  private lazy val uq3 = UnionWorkloads.uq3(spark, sf = 0.004)

  /** `r`'s groups on `attrs` as a frame: the key columns, then "deg". */
  private def degreeFrame(r: Rel, attrs: Seq[String]): DataFrame = {
    val rows = r.groups(attrs).toSeq.map { case (k, ids) =>
      val vals = if (attrs.size == 1) Seq(k) else k.asInstanceOf[Seq[Any]]
      Row.fromSeq(vals :+ ids.length.toLong)
    }
    val schema = StructType(attrs.map(r.df.schema(_)) :+ StructField("deg", LongType))
    spark.createDataFrame(rows.asJava, schema)
  }

  test("degree histogram matches DuckDB") {
    val b0 = toy.joins(0).relations(1)
    Oracle.assertEquivalent(degreeFrame(b0, Seq("k")),
      "SELECT k AS k, count(*) AS deg FROM b0 GROUP BY k",
      "b0" -> b0.df)
  }

  test("max and avg degree match DuckDB scalars") {
    val orders = uq1.joins.head.relations(3)
    val degs = orders.groups(Seq("custkey")).values.map(_.length)
    import spark.implicits._
    Oracle.assertEquivalent(
      Seq((orders.maxDegree(Seq("custkey")), degs.sum.toDouble / degs.size)).toDF("m", "a"),
      "SELECT max(deg) AS m, avg(deg) AS a FROM " +
        "(SELECT custkey, count(*) AS deg FROM orders GROUP BY custkey)",
      "orders" -> orders.df)
    assert(orders.maxDegree(Seq("custkey")) >= 1)
  }

  test("maxDegreeMulti on composite keys") {
    val (r, _, _) = ToyData.toyTriangleRels(spark)
    Oracle.assertEquivalent(degreeFrame(r, Seq("a", "b")),
      "SELECT a AS a, b AS b, count(*) AS deg FROM r GROUP BY a, b",
      "r" -> r.df)
    assert(r.maxDegree(Seq("a", "b")) == 1L)
    import spark.implicits._
    Oracle.assertEquivalent(Seq(r.maxDegree(Seq("a"))).toDF("m"),
      "SELECT max(deg) AS m FROM (SELECT a, count(*) AS deg FROM r GROUP BY a)",
      "r" -> r.df)
  }

  test("ChainForm.aligned detects the §5.1 base case") {
    assert(ChainForm.aligned(toy.joins))
    assert(ChainForm.aligned(uq1.joins))
    assert(!ChainForm.aligned(uq3.joins)) // star + chains with different schemas
  }

  test("direct overlap bound dominates the exact overlap (toy)") {
    val fju = new FullJoinUnion(toy.joins)
    val est = HistogramOverlap.estimate(toy.joins)
    val bound = est.o(Set(0, 1))
    assert(bound >= fju.overlap(Set(0, 1)).toDouble, s"bound $bound")
    // singleton: extended-Olken join-size bound dominates |J|
    val b0 = est.o(Set(0))
    assert(b0 >= fju.sizes(0).toDouble)
  }

  test("direct overlap bounds dominate exact overlaps on all UQ1 subsets") {
    val fju = new FullJoinUnion(uq1.joins)
    val est = HistogramOverlap.estimate(uq1.joins)
    for (k <- 1 to 3; idx <- (0 until uq1.joins.size).combinations(k).take(6)) {
      val bound = est.o(idx.toSet)
      val exact = fju.overlap(idx.toSet).toDouble
      assert(bound >= exact - 1e-6, s"Δ=$idx: bound $bound < exact $exact")
    }
  }

  test("estimate() produces a full powerset of overlap estimates") {
    val p = HistogramOverlap.estimate(toy3.joins)
    assert(p.overlaps.size == 7)
    assert(p.joinSizes.forall(_ > 0))
    assert(p.unionSize > 0)
    assert(math.abs(p.alphas.sum - 1.0) < 1e-9)
  }

  test("monotonize caps supersets at the subset minimum") {
    val o = Map(Set(0) -> 10.0, Set(1) -> 20.0, Set(0, 1) -> 50.0)
    val m = HistogramOverlap.monotonize(2, o)
    assert(m(Set(0, 1)) == 10.0)
    assert(m(Set(0)) == 10.0 && m(Set(1)) == 20.0)
    // already-consistent maps are untouched
    val ok = Map(Set(0) -> 10.0, Set(1) -> 20.0, Set(0, 1) -> 5.0)
    assert(HistogramOverlap.monotonize(2, ok) == ok)
  }

  test("histogram union estimate is positive, bounded, join sizes dominate") {
    val fju = new FullJoinUnion(uq1.joins)
    val est = HistogramOverlap.estimate(uq1.joins)
    // Inclusion–exclusion over *upper bounds* has no guaranteed direction
    // for |U| (overlap overestimates subtract too much); require sanity:
    assert(est.unionSize > 0)
    assert(est.unionSize <= est.joinSizes.sum + 1e-6)
    assert(est.unionSize >= fju.unionSize * 0.1,
      s"estimated |U| ${est.unionSize} wildly below exact ${fju.unionSize}")
    // per-join size bounds DO dominate (they are genuine Olken bounds)
    uq1.joins.indices.foreach { j =>
      assert(est.joinSizes(j) >= fju.sizes(j).toDouble - 1e-6,
        s"join $j: ${est.joinSizes(j)} < ${fju.sizes(j)}")
    }
  }

  test("null join values add nothing to K(1), and the bound still dominates") {
    val w = ToyData.toyNullKeys(spark)
    val a = w.joins.head.relations.head
    Oracle.assertEquivalent(degreeFrame(a, Seq("k")),
      "SELECT k AS k, count(*) AS deg FROM a WHERE k IS NOT NULL GROUP BY k",
      "a" -> a.df)
    // A's two null rows are its largest group, but never join
    assert(a.maxDegree(Seq("k")) == 1L)
    val est = HistogramOverlap.estimate(w.joins)
    // Theorem 4 by hand, non-null k only: d_A·d_B0 = {1: 2, 2: 1} and
    // d_A·d_B1 = {1: 1, 2: 2, 3: 1}, so |J0| ≤ 3, |J1| ≤ 4 and
    // |O_01| ≤ min(2, 1) + min(1, 2) = 2; counting the null rows would give 4
    assert(est.o(Set(0)) == 3.0 && est.o(Set(1)) == 4.0)
    assert(est.o(Set(0, 1)) == 2.0)
    val fju = new FullJoinUnion(w.joins)
    assert(est.o(Set(0, 1)) >= fju.overlap(Set(0, 1)).toDouble)
  }

  test("an empty relation gives its join size 0 and a 0 Olken bound; sampling skips the join") {
    val w = ToyData.toyEmptyTail(spark)
    val est = WarmUp.histogram(w.joins)
    assert(est.o(Set(1)) == 0.0)
    assert(est.o(Set(0)) >= new FullJoinUnion(Seq(w.joins.head)).sizes.head.toDouble)
    assert(new OlkenSampler(w.joins(1)).bound == 0.0)
    val keys = new FullJoinUnion(Seq(w.joins.head)).unionKeys
    val res = UnionSampler(w.joins, est, "EW", seed = 3).sample(200)
    assert(res.tuples.size == 200)
    assert(res.tuples.forall { case (t, j) => j == 0 && keys.contains(t.values) })
  }

  // ---- §8.1 templates -----------------------------------------------------

  test("attribute distances: 0 when co-located, >0 across relations") {
    val j = toy.joins.head
    assert(Splitter.dist(j, "k", "atag") == 0)
    assert(Splitter.dist(j, "k", "bval") == 0)
    assert(Splitter.dist(j, "atag", "bval") == 1)
    val star = ToyData.toyStar(spark)
    assert(Splitter.dist(star, "sv", "tv") == 2) // via the root
  }

  test("bestTemplate covers each output attribute exactly once") {
    val t = Splitter.bestTemplate(uq3.joins)
    assert(t.sorted == uq3.joins.head.outputCols.sorted)
    assert(t.distinct.size == t.size)
  }

  test("bestTemplate minimizes adjacent score on a small instance") {
    val t = Splitter.bestTemplate(toy.joins)
    def cost(order: Seq[String]) =
      order.sliding(2).map(p => Splitter.score(toy.joins, p(0), p(1))).sum
    val best = toy.joins.head.outputCols.permutations.map(cost).min
    assert(cost(t) == best)
  }

  test("split join reproduces aligned chains for UQ3 and bounds dominate") {
    val template = Splitter.bestTemplate(uq3.joins)
    val chains = uq3.joins.map(Splitter.split(_, template))
    assert(chains.forall(_.hops == template.size - 2))
    val fju = new FullJoinUnion(uq3.joins)
    val est = HistogramOverlap.estimate(uq3.joins)
    // singleton bounds dominate join sizes
    uq3.joins.indices.foreach { j =>
      val b = est.o(Set(j))
      assert(b >= fju.sizes(j).toDouble - 1e-6, s"join $j bound $b < ${fju.sizes(j)}")
    }
  }

  test("fake joins are detected for pieces split from the same relation") {
    val template = Splitter.bestTemplate(uq3.joins)
    val chain = Splitter.split(uq3.joins(1), template) // cust1(custkey,nationkey,acctbal)
    assert((0 until chain.hops).exists(chain.isFake),
      "a 3-attribute relation split into two pieces must create a fake hop")
  }
}
