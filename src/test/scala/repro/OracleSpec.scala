package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: agreements pass, disagreements throw. */
class OracleSpec extends SparkSpec {

  private lazy val df = {
    import spark.implicits._
    Seq((1L, "a", 2.5), (2L, "b", 3.5), (3L, "a", 4.0)).toDF("id", "tag", "v")
  }

  test("equivalent aggregate passes") {
    Oracle.assertEquivalent(
      df.groupBy("tag").agg(count(lit(1)).as("c"), sum("v").as("s")),
      "SELECT tag AS tag, count(*) AS c, sum(CAST(v AS DOUBLE)) AS s FROM t GROUP BY tag",
      "t" -> df)
  }

  test("row mismatch is detected") {
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.filter(col("id") > 1),
        "SELECT id AS id, tag AS tag, v AS v FROM t",
        "t" -> df)
    }
  }

  test("column mismatch is detected") {
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select(col("id").as("wrong")),
        "SELECT id AS id FROM t",
        "t" -> df)
    }
  }

  test("null values canonicalize consistently") {
    import spark.implicits._
    val withNull = Seq((1L, Some("x")), (2L, None)).toDF("id", "s")
    Oracle.assertEquivalent(
      withNull,
      "SELECT id AS id, s AS s FROM t",
      "t" -> withNull)
  }
}

