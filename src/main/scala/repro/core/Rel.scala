package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** A base relation participating in a join.
  *
  * Wraps a DataFrame with a name and caches derived artifacts the samplers
  * need repeatedly: the row count, and the rows on the driver, numbered by
  * position and grouped by each join key.
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

  /** The rows on the driver, sorted by all columns; a row's id is its
    * position, so ids depend only on the data, not on its partitioning.
    * One Spark job, a sort of one partition. Fails for a relation of more
    * than [[Rel.MaxDriverRows]] rows.
    */
  lazy val rows: Array[Row] = {
    val got = df.coalesce(1).sortWithinPartitions(cols.map(col): _*)
      .limit(Rel.MaxDriverRows + 1).collect()
    require(got.length <= Rel.MaxDriverRows,
      s"relation $name has $count rows, above the ${Rel.MaxDriverRows}-row limit of a driver-side index")
    got
  }

  private val groupsByKey = scala.collection.concurrent.TrieMap.empty[Seq[String], Map[Any, Array[Int]]]

  /** The rows grouped by the key `attrs`: each key value ([[Rel.key]]) ↦
    * the ids of its rows in [[rows]], ascending. Rows with a null in the
    * key are left out, since an equi-join never matches them. A group's
    * size is the value's degree (§5). Built once per key.
    */
  def groups(attrs: Seq[String]): Map[Any, Array[Int]] =
    groupsByKey.getOrElseUpdate(attrs, {
      val at = attrs.map(cols.indexOf)
      rows.indices.groupBy(i => Rel.key(rows(i), at))
        .collect { case (k, ids) if k != null => k -> ids.toArray }
    })

  /** The largest degree of the key `attrs` (the Olken bound's M); 0 when
    * no row has a non-null key.
    */
  def maxDegree(attrs: Seq[String]): Long =
    groups(attrs).valuesIterator.map(_.length).maxOption.getOrElse(0).toLong
}

object Rel {
  /** The most rows [[Rel.rows]] collects to the driver. */
  val MaxDriverRows: Int = 1 << 20

  /** A row's join key on columns `at`. */
  def key(r: Row, at: Seq[Int]): Any = key(at.map(r.get))

  /** The join key of a key's values: the value itself for one column, the
    * values' sequence for several; null when a value is null.
    */
  def key(values: Seq[Any]): Any =
    if (values.contains(null)) null
    else if (values.size == 1) values.head
    else values

  /** `df` marked for caching, unless its plan is cached already: frames
    * rebuilt with the same plan (a workload generated again, the ground
    * truth of the same joins) share one cache entry, and caching it again
    * only logs a warning.
    */
  def cached(df: DataFrame): DataFrame =
    if (df.storageLevel == StorageLevel.NONE) df.cache() else df
}
