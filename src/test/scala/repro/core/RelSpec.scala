package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** The Rel wrapper: counting, caching and the dense stable row ids of `rows`. */
class RelSpec extends SparkSpec {

  private def mk(n: Int): Rel = {
    import spark.implicits._
    Rel("r", (1 to n).map(i => (i.toLong, s"v$i")).toDF("k", "v"))
  }

  test("count matches the data") {
    assert(mk(17).count == 17L)
  }

  // The "indexed" tests check Rel.rows: a row's position is its id.

  test("indexed assigns a dense 0-based id") {
    val r = mk(25)
    assert(r.rows.length == 25)
    assert(r.rows.indices == (0 until 25))
    assert(r.rows.map(_.getLong(0)).distinct.length == 25)
  }

  test("indexed ids are stable across evaluations") {
    val r = mk(40)
    def idsOf(x: Rel) = x.rows.indices.map(i => x.rows(i).getLong(0) -> i).toMap
    // a second Rel over the same data, shuffled into other partitions
    val again = Rel("r", r.df.repartition(5))
    assert(idsOf(r) == idsOf(again))
  }

  test("joining driver-chosen ids back recovers the right rows") {
    val r = mk(30)
    val got = Seq(0, 7, 29).map(i => r.rows(i).getLong(0)).toSet
    assert(got.size == 3)
    assert(got.subsetOf((1L to 30L).toSet))
  }

  test("cols reflect the schema") {
    assert(mk(3).cols == Seq("k", "v"))
  }

  test("rows follow indexed's ids") {
    import spark.implicits._
    val strs = Rel("s", Seq[(String, Long)](("b", 2L), ("a", 3L), (null, 5L), ("a", 1L), ("ab", 0L))
      .toDF("s", "n").repartition(3))
    Seq(mk(25), strs).foreach { r =>
      val sorted = r.df.orderBy(r.cols.map(col): _*).collect().toSeq
      assert(r.rows.toSeq == sorted)
    }
  }

  test("indexed does not disturb the data") {
    val r = mk(12)
    val back = spark.createDataFrame(java.util.Arrays.asList(r.rows: _*), r.df.schema)
    assert(back.except(r.df).count() == 0)
    assert(r.df.except(back).count() == 0)
  }
}
