package repro.core.union

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.walk.WanderJoin

/** The FullJoinUnion baseline (§9): materialize every join, compute exact
  * sizes, exact overlaps of every subset (`INTERSECT`) and the exact set
  * union (`UNION` + `distinct`). This is the ground truth the estimators
  * are scored against — and the expensive brute force the framework
  * exists to avoid.
  */
final class FullJoinUnion(val joins: Seq[JoinSpec]) {
  val n: Int = joins.size
  val cols: Seq[String] = WanderJoin.canonCols(joins.head)

  lazy val joinDfs: Seq[DataFrame] =
    joins.map(j => Rel.cached(j.fullJoin.select(cols.map(col): _*)))

  lazy val sizes: Seq[Long] = joinDfs.map(_.count())

  private val overlapCache = scala.collection.mutable.Map.empty[Set[Int], Long]

  /** |O_Δ| = |∩_{j∈Δ} J_j| exactly. */
  def overlap(delta: Set[Int]): Long = overlapCache.getOrElseUpdate(delta, {
    if (delta.size == 1) sizes(delta.head)
    else delta.toSeq.sorted.map(joinDfs).reduceLeft(_ intersect _).count()
  })

  /** Exact parameters for every non-empty Δ ⊆ S. */
  lazy val params: UnionParams = {
    val overlaps = (1 to n).flatMap { k =>
      (0 until n).combinations(k).map(idx => idx.toSet -> overlap(idx.toSet).toDouble)
    }.toMap
    UnionParams(n, overlaps)
  }

  lazy val unionDf: DataFrame = Rel.cached(joinDfs.reduce(_ union _).distinct())

  lazy val unionSize: Long = unionDf.count()

  /** The tuples of the whole union, as the `values` of their canonical
    * columns (test-scale only).
    */
  lazy val unionKeys: Set[IndexedSeq[Any]] = unionDf.collect().iterator.map(_.toSeq.toIndexedSeq).toSet
}
