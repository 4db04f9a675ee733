package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** The Rel wrapper: counting, caching and the dense stable row index. */
class RelSpec extends SparkSpec {

  private def mk(n: Int): Rel = {
    import spark.implicits._
    Rel("r", (1 to n).map(i => (i.toLong, s"v$i")).toDF("k", "v"))
  }

  test("count matches the data") {
    assert(mk(17).count == 17L)
  }

  test("indexed assigns a dense 0-based id") {
    val r = mk(25)
    val ids = r.indexed.select("__rid").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == (0L until 25L))
  }

  test("indexed ids are stable across evaluations") {
    val r = mk(40)
    val a = r.indexed.select("k", "__rid").collect().map(x => (x.getLong(0), x.getLong(1))).toMap
    val b = r.indexed.select("k", "__rid").collect().map(x => (x.getLong(0), x.getLong(1))).toMap
    assert(a == b)
  }

  test("joining driver-chosen ids back recovers the right rows") {
    val r = mk(30)
    import spark.implicits._
    val want = Seq(0L, 7L, 29L).toDF("__rid")
    val got = r.indexed.join(want, "__rid").select("k").collect().map(_.getLong(0)).toSet
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
      val byId = r.indexed.orderBy("__rid").drop("__rid").collect().toSeq
      assert(r.rows.toSeq == byId)
    }
  }

  test("indexed does not disturb the data") {
    val r = mk(12)
    assert(r.indexed.drop("__rid").except(r.df).count() == 0)
    assert(r.df.except(r.indexed.drop("__rid")).count() == 0)
  }
}
