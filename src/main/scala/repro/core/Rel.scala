package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.stats.DegreeStats

/** A base relation participating in a join.
  *
  * Wraps a DataFrame with a name and caches derived artifacts the samplers
  * need repeatedly: the row count, the maximum degree of each join key, and
  * an `indexed` view carrying a dense 0-based row id (`__rid`) used for
  * uniform / weighted root-tuple sampling.
  *
  * Relations are assumed duplicate-free (the paper assumes joins have no
  * duplicate result tuples; our generators guarantee distinct rows).
  * Column names are globally meaningful: join attributes carry the same
  * name in every relation they appear in, and non-join attributes are
  * unique across the relations of a workload.
  */
final case class Rel(name: String, raw: DataFrame) {

  /** Cached data. Every estimator touches relations many times. */
  lazy val df: DataFrame = { val d = Rel.cached(raw); d.count(); d }

  lazy val count: Long = df.count()

  def cols: Seq[String] = df.columns.toSeq

  /** Data with a dense, deterministic 0-based row id (`__rid`).
    *
    * The id is assigned by a total order over all columns, so it is stable
    * across recomputations — required because samplers join driver-chosen
    * ids back against this view.
    */
  lazy val indexed: DataFrame = {
    val ordered = Window.orderBy(cols.map(col): _*)
    val d = Rel.cached(df.withColumn("__rid", row_number().over(ordered).cast("long") - 1))
    d.count()
    d
  }

  /** The rows on the driver, in `indexed`'s id order (row i has `__rid`
    * i), collected once for driver-side indexes. One Spark job: a sort of
    * one partition by all columns, the order `indexed` numbers rows by.
    * Fails for a relation of more than [[Rel.MaxDriverRows]] rows.
    */
  lazy val rows: Array[Row] = {
    val got = df.coalesce(1).sortWithinPartitions(cols.map(col): _*)
      .limit(Rel.MaxDriverRows + 1).collect()
    require(got.length <= Rel.MaxDriverRows,
      s"relation $name has $count rows, above the ${Rel.MaxDriverRows}-row limit of a driver-side index")
    got
  }

  private val maxDegrees = scala.collection.concurrent.TrieMap.empty[Seq[String], Long]

  /** [[DegreeStats.maxDegree]] of the key `attrs`, computed once per key. */
  def maxDegree(attrs: Seq[String]): Long =
    maxDegrees.getOrElseUpdate(attrs, DegreeStats.maxDegree(df, attrs))
}

object Rel {
  /** The most rows [[Rel.rows]] collects to the driver. */
  val MaxDriverRows: Int = 1 << 20

  /** `df` marked for caching, unless its plan is cached already: frames
    * rebuilt with the same plan (a workload generated again, the ground
    * truth of the same joins) share one cache entry, and caching it again
    * only logs a warning.
    */
  def cached(df: DataFrame): DataFrame =
    if (df.storageLevel == StorageLevel.NONE) df.cache() else df
}
