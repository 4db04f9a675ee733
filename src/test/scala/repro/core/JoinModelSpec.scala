package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, ToyData}
import repro.ExactUnionSampling._
import repro.core.union.FullJoinUnion
import repro.core.walk.{JTuple, WanderJoin}

/** The join tree model: full joins (Oracle-checked against DuckDB),
  * membership probes, output schemas, cyclic decomposition.
  */
class JoinModelSpec extends SparkSpec {

  private lazy val toy = ToyData.toyUnion(spark)
  private lazy val toy3 = ToyData.toyUnion3(spark)

  test("chain fullJoin matches DuckDB") {
    val j = toy.joins.head.asInstanceOf[ChainJoin]
    Oracle.assertEquivalent(
      j.fullJoin,
      "SELECT a.k AS k, a.atag AS atag, b.bval AS bval FROM toy_a a JOIN toy_b0 b ON a.k = b.k",
      "toy_a" -> j.rels(0).df, "toy_b0" -> j.rels(1).df)
  }

  test("star fullJoin matches DuckDB") {
    val j = ToyData.toyStar(spark)
    Oracle.assertEquivalent(
      j.fullJoin,
      "SELECT r.k AS k, r.rv AS rv, s.sv AS sv, t.tv AS tv " +
        "FROM star_r r JOIN star_s s ON r.k = s.k JOIN star_t t ON r.k = t.k",
      "star_r" -> j.relations(0).df, "star_s" -> j.relations(1).df,
      "star_t" -> j.relations(2).df)
  }

  test("triangle fullJoin matches DuckDB") {
    val j = ToyData.toyTriangle(spark)
    val (r, s, t) = ToyData.toyTriangleRels(spark)
    Oracle.assertEquivalent(
      j.fullJoin.select("a", "b", "c"),
      "SELECT r.a AS a, r.b AS b, s.c AS c FROM tri_r r " +
        "JOIN tri_s s ON r.b = s.b JOIN tri_t t ON s.c = t.c AND r.a = t.a",
      "tri_r" -> r.df, "tri_s" -> s.df, "tri_t" -> t.df)
  }

  test("output schema keeps each attribute once, pre-order") {
    val j = toy.joins.head
    assert(j.outputCols == Seq("k", "atag", "bval"))
    val star = ToyData.toyStar(spark)
    assert(star.outputCols == Seq("k", "rv", "sv", "tv"))
  }

  /** Join j's tuples as probe candidates, in canonical column order. */
  private def tuplesOf(j: JoinSpec): Seq[JTuple] = {
    val cols = WanderJoin.canonCols(j)
    j.fullJoin.select(cols.map(col): _*).collect().map(r =>
      JTuple(IndexedSeq.range(0, cols.size).map(r.get), 1.0)).toSeq
  }

  /** J0's tuples probed against J0 are all members, and against J1
    * exactly those J1 also holds.
    */
  private def assertProbes(j0: JoinSpec, j1: JoinSpec): Unit = {
    val t0 = tuplesOf(j0)
    val k1 = tuplesOf(j1).map(_.values).toSet
    assert(t0.nonEmpty)
    assert(WanderJoin.membership(j0, t0) == t0.map(_ => true))
    assert(WanderJoin.membership(j1, t0) == t0.map(t => k1.contains(t.values)))
  }

  test("membership probe agrees with the materialized join") {
    assertProbes(toy.joins(0), toy.joins(1))

    // Null join keys: a candidate whose every projection is a row, but
    // whose key is null, is in no join.
    val nulls = ToyData.toyNullKeys(spark)
    assertProbes(nulls.joins(0), nulls.joins(1))
    assertProbes(nulls.joins(1), nulls.joins(0))
    val nullKey = JTuple(IndexedSeq("A0", 99L, null), 1.0) // (atag, bval, k)
    nulls.joins.foreach(j => assert(WanderJoin.membership(j, Seq(nullKey)) == Seq(false)))

    // Cyclic: the skeleton r ⋈ s holds tuples the residual t rules out.
    val tri = ToyData.toyTriangle(spark)
    val skeleton = AcyclicJoin("tri_skeleton", tri.root.copy(children = tri.root.children.init))
    val cands = tuplesOf(skeleton)
    val triKeys = tuplesOf(tri).map(_.values).toSet
    assert(cands.size > triKeys.size)
    assert(cands.zip(WanderJoin.membership(tri, cands)).collect { case (t, true) => t.values }.toSet == triKeys)

    // A null outside the join keys: the tuple is still a tuple of its join.
    import spark.implicits._
    val a = Rel("np_a", Seq[(Long, String)]((1L, null), (2L, "A2"), (3L, "A3")).toDF("k", "atag"))
    def b(name: String, rows: (Long, Long)*) = Rel(name, rows.toDF("k", "bval"))
    val j0 = ChainJoin("np_J0", Seq(a, b("np_b0", (1L, 10L), (2L, 20L))), Seq("k"))
    val j1 = ChainJoin("np_J1", Seq(a, b("np_b1", (1L, 10L), (3L, 30L))), Seq("k"))
    assertProbes(j0, j1)
    val t0 = tuplesOf(j0)
    assert(t0.zip(WanderJoin.membership(j1, t0)).collect { case (t, true) => t.values } == Seq(Seq(null, 10L, 1L)))
  }

  test("membership probe on empty candidates") {
    assert(WanderJoin.membership(toy.joins.head, Seq.empty).isEmpty)
  }

  test("FullJoinUnion: exact toy sizes, overlap and union") {
    val fju = new FullJoinUnion(toy.joins)
    assert(fju.sizes == Seq(12L, 12L))
    assert(fju.overlap(Set(0, 1)) == 8L)
    assert(fju.unionSize == 16L)
    val p = fju.params
    assert(p.unionSize == 16.0)
    assert(p.unionSizeByK == 16.0)
    assert(p.coverSizes == IndexedSeq(12.0, 4.0))
    assert(p.alphas.sum > 0.999 && p.alphas.sum < 1.001)
  }

  test("FullJoinUnion: union against DuckDB") {
    val fju = new FullJoinUnion(toy.joins)
    Oracle.assertEquivalent(
      fju.unionDf,
      "SELECT a.atag AS atag, a.k AS k, b.bval AS bval FROM toy_a a JOIN toy_b0 b ON a.k = b.k " +
        "UNION SELECT a.atag, a.k, b.bval FROM toy_a a JOIN toy_b1 b ON a.k = b.k",
      "toy_a" -> toy.joins(0).relations(0).df,
      "toy_b0" -> toy.joins(0).relations(1).df,
      "toy_b1" -> toy.joins(1).relations(1).df)
  }

  test("FullJoinUnion on three joins: k-overlap structure is consistent") {
    val fju = new FullJoinUnion(toy3.joins)
    val p = fju.params
    // brute-force union of key ranges: 1..24 (b0:1-12, b1:7-20, b2:10-24)
    assert(fju.unionSize == 24L)
    assert(p.unionSizeByK == 24.0)
    assert(fju.overlap(Set(0, 1)) == 6)  // 7..12
    assert(fju.overlap(Set(0, 2)) == 3)  // 10..12
    assert(fju.overlap(Set(1, 2)) == 11) // 10..20
    assert(fju.overlap(Set(0, 1, 2)) == 3) // 10..12
  }

  test("exact uniform union sampling returns only union tuples") {
    val fju = new FullJoinUnion(toy.joins)
    val sample = fju.sampleUnion(200, seed = 5)
    assert(sample.size == 200)
    assert(sample.forall(t => fju.unionKeys.contains(t.values)))
  }

  test("cyclic residual materialization preserves the join result") {
    val j = ToyData.toyTriangle(spark)
    val expect = j.root.rel.df
      .join(j.root.children.head.child.rel.df, "b")
      .join(j.residual.df, Seq("c", "a"))
      .count()
    assert(j.fullJoin.count() == expect)
    assert(j.fullJoin.count() > 0)
  }
}
