package repro.core.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Rel

/** Degree statistics of join attributes (§5) — the "histograms" a DBMS
  * would keep for cardinality estimation. Spark computes the histograms;
  * callers keep what they reuse ([[Rel.maxDegree]], the per-estimate maps
  * of the histogram estimator).
  */
object DegreeStats {

  /** Value → frequency histogram of `attr` in `df` (columns: attr, "deg"). */
  def histogram(df: DataFrame, attr: String): DataFrame =
    df.groupBy(attr).agg(count(lit(1)).as("deg"))

  /** The histogram of `attr` on the driver, without the null value, which
    * an equi-join never matches. Fails above [[Rel.MaxDriverRows]] values.
    */
  def degrees(df: DataFrame, attr: String): Map[Any, Long] = {
    val got = histogram(df.where(col(attr).isNotNull), attr).limit(Rel.MaxDriverRows + 1).collect()
    require(got.length <= Rel.MaxDriverRows,
      s"$attr has more than ${Rel.MaxDriverRows} distinct values, above the limit of a driver-side histogram")
    got.iterator.map(r => r.get(0) -> r.getLong(1)).toMap
  }

  /** Maximum frequency of a (composite) key — the Olken degree bound; 0
    * for an empty input.
    */
  def maxDegree(df: DataFrame, attrs: Seq[String]): Long = {
    val r = df.groupBy(attrs.map(col): _*).agg(count(lit(1)).as("deg")).agg(max("deg")).head
    if (r.isNullAt(0)) 0L else r.getLong(0)
  }
}
