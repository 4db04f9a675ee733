package repro.core.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Degree statistics of join attributes (§5) — the "histograms" a DBMS
  * would keep for cardinality estimation. All computed as DataFrame
  * aggregations; results are cached per (plan, attribute) because the
  * overlap estimator revisits the same statistic for every subset Δ.
  */
object DegreeStats {

  private val cache = new java.util.concurrent.ConcurrentHashMap[(Int, String, String), Any]()

  private def memo[T](df: DataFrame, attr: String, kind: String)(body: => T): T =
    cache.computeIfAbsent((System.identityHashCode(df), attr, kind), _ => body).asInstanceOf[T]

  /** Value → frequency histogram of `attr` in `df` (columns: attr, "deg"). */
  def histogram(df: DataFrame, attr: String): DataFrame =
    df.groupBy(attr).agg(count(lit(1)).as("deg"))

  /** Maximum value frequency M_attr(df) — the Olken degree bound. */
  def maxDegree(df: DataFrame, attr: String): Long = memo(df, attr, "max") {
    histogram(df, attr).agg(max("deg")).head.getLong(0)
  }

  /** Max frequency of a composite key — degree bound for multi-attribute
    * join edges (trees derived from cyclic joins, §8.2).
    */
  def maxDegreeMulti(df: DataFrame, attrs: Seq[String]): Long =
    memo(df, attrs.mkString(","), "maxMulti") {
      df.groupBy(attrs.map(col): _*).agg(count(lit(1)).as("deg")).agg(max("deg")).head.getLong(0)
    }
}
