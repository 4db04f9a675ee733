package repro

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.workloads.UnionWorkload

/** Tiny, fully deterministic workloads whose joins, overlaps and unions
  * can be enumerated by hand or brute force — the unit-test counterpart of
  * the UQ1–UQ3 generators.
  */
object ToyData {

  /** Two 2-relation chain joins A ⋈_k B_j over a shared A.
    *
    * B0 and B1 share rows k ∈ 1..8 (identical payloads) and each holds 4
    * private rows, so |J0|=|J1|=12, |O_{01}|=8, |U|=16.
    */
  def toyUnion(spark: SparkSession): UnionWorkload = {
    import spark.implicits._
    val a = Rel("toy_a", (1 to 20).map(k => (k.toLong, s"A$k")).toDF("k", "atag"))
    val shared = (1 to 8).map(k => (k.toLong, k * 2L))
    val b0 = Rel("toy_b0", (shared ++ (101 to 104).map(i => (i.toLong - 100, 1000L + i)))
      .toDF("k", "bval"))
    val b1 = Rel("toy_b1", (shared ++ (105 to 108).map(i => (i.toLong - 100, 1000L + i)))
      .toDF("k", "bval"))
    UnionWorkload("toy", Seq(
      ChainJoin("toy_J0", Seq(a, b0), Seq("k")),
      ChainJoin("toy_J1", Seq(a, b1), Seq("k"))))
  }

  /** Three overlapping 2-relation chains (exercises 3-way k-overlaps). */
  def toyUnion3(spark: SparkSession): UnionWorkload = {
    import spark.implicits._
    val a = Rel("t3_a", (1 to 30).map(k => (k.toLong, s"A$k")).toDF("k", "atag"))
    def b(name: String, ks: Seq[Int]) =
      Rel(name, ks.map(k => (k.toLong, k * 3L)).toDF("k", "bval"))
    val b0 = b("t3_b0", 1 to 12)
    val b1 = b("t3_b1", 7 to 20)
    val b2 = b("t3_b2", (10 to 24).toSeq)
    UnionWorkload("toy3", Seq(
      ChainJoin("t3_J0", Seq(a, b0), Seq("k")),
      ChainJoin("t3_J1", Seq(a, b1), Seq("k")),
      ChainJoin("t3_J2", Seq(a, b2), Seq("k"))))
  }

  /** Two 2-relation chains A ⋈_k B_j whose relations all hold rows with a
    * null k, which join nothing. Non-null k: A has 1..3 once each; B0 has
    * 1 twice and 2 once; B1 has 1 once, 2 twice and 3 once. |J0| = 3,
    * |J1| = 4, and the joins share (1, A1, 10) and (2, A2, 20).
    */
  def toyNullKeys(spark: SparkSession): UnionWorkload = {
    import spark.implicits._
    val a = Rel("null_a", Seq((Some(1L), "A1"), (Some(2L), "A2"), (Some(3L), "A3"),
      (None, "A0"), (None, "A00")).toDF("k", "atag"))
    def b(name: String, rows: (Option[Long], Long)*) = Rel(name, rows.toDF("k", "bval"))
    val b0 = b("null_b0", (Some(1L), 10L), (Some(1L), 11L), (Some(2L), 20L), (None, 99L))
    val b1 = b("null_b1", (Some(1L), 10L), (Some(2L), 20L), (Some(2L), 21L), (Some(3L), 30L), (None, 99L))
    UnionWorkload("toyNull", Seq(
      ChainJoin("null_J0", Seq(a, b0), Seq("k")),
      ChainJoin("null_J1", Seq(a, b1), Seq("k"))))
  }

  /** Two 3-relation chains A ⋈_k B ⋈_m C_j, where C1 is a selection that
    * keeps no row of C0, so J1 is empty.
    */
  def toyEmptyTail(spark: SparkSession): UnionWorkload = {
    import spark.implicits._
    val a = Rel("tail_a", (1 to 6).map(k => (k.toLong, s"A$k")).toDF("k", "atag"))
    val b = Rel("tail_b", (1 to 6).flatMap(k => Seq((k.toLong, k * 10L), (k.toLong, k * 10L + 1)))
      .toDF("k", "m"))
    val c0 = (1 to 6).flatMap(k => Seq(k * 10L, k * 10L + 1)).map(m => (m, m % 7)).toDF("m", "csize")
    UnionWorkload("toyEmptyTail", Seq(
      ChainJoin("tail_J0", Seq(a, b, Rel("tail_c0", c0)), Seq("k", "m")),
      ChainJoin("tail_J1", Seq(a, b, Rel("tail_c1", c0.filter($"csize" > 100))), Seq("k", "m"))))
  }

  /** A small star join: root r(k, rv) with children s(k, sv) and t(k, tv),
    * with skew in the children so exact weights differ per root tuple.
    */
  def toyStar(spark: SparkSession): AcyclicJoin = {
    import spark.implicits._
    val r = Rel("star_r", (1 to 10).map(k => (k.toLong, s"R$k")).toDF("k", "rv"))
    val s = Rel("star_s", (1 to 10).flatMap(k => (0 until (k % 3) + 1).map(i => (k.toLong, k * 10L + i)))
      .toDF("k", "sv"))
    val t = Rel("star_t", (1 to 8).flatMap(k => (0 until (k % 2) + 1).map(i => (k.toLong, k * 100L + i)))
      .toDF("k", "tv"))
    AcyclicJoin("toy_star", JoinTree(r, Seq(
      JoinEdge(Seq("k"), JoinTree(s, Nil)),
      JoinEdge(Seq("k"), JoinTree(t, Nil)))))
  }

  /** The base relations of the triangle query r(a,b) ⋈ s(b,c) ⋈ t(c,a). */
  def toyTriangleRels(spark: SparkSession): (Rel, Rel, Rel) = {
    import spark.implicits._
    val r = Rel("tri_r", (for (a <- 1 to 6; b <- 1 to 6 if (a + b) % 2 == 0)
      yield (a.toLong, b.toLong)).toDF("a", "b"))
    val s = Rel("tri_s", (for (b <- 1 to 6; c <- 1 to 6 if (b * c) % 3 != 1)
      yield (b.toLong, c.toLong)).toDF("b", "c"))
    val t = Rel("tri_t", (for (c <- 1 to 6; a <- 1 to 6 if (c + 2 * a) % 4 != 0)
      yield (c.toLong, a.toLong)).toDF("c", "a"))
    (r, s, t)
  }

  /** Triangle query r(a,b) ⋈ s(b,c) ⋈ t(c,a) — the cyclic-join test case,
    * built by breaking the cycle with t as the residual (§8.2).
    */
  def toyTriangle(spark: SparkSession): CyclicJoin = {
    val (r, s, t) = toyTriangleRels(spark)
    CyclicJoin("toy_triangle", JoinTree(r, Seq(JoinEdge(Seq("b"), JoinTree(s, Nil)))),
      Seq(t), Seq.empty)
  }
}
