package repro.core.walk

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.core._

/** One successfully joined walk: the result tuple's values aligned to the
  * workload's canonical column order, and its walk probability
  * p(t) = 1/|R_root| · Π 1/d_i (§6.1).
  */
final case class JTuple(values: IndexedSeq[Any], p: Double) {
  /** Canonical identity of the tuple value u = t.val (Example 3). */
  lazy val key: String = JTuple.key(values)
}

object JTuple {
  /** The key of a tuple value: its fields' string forms joined by `␞`. */
  def key(values: Seq[Any]): String = values.map(String.valueOf).mkString("␞")

  /** The key of a collected row holding exactly the canonical columns. */
  def key(r: Row): String = key(r.toSeq)
}

/** A batch of walks: `requested` walks were started, `samples` succeeded
  * (failed walks contribute estimator terms of 0).
  */
final case class WalkBatch(samples: IndexedSeq[JTuple], requested: Int) {
  def failures: Int = requested - samples.size

  /** Horvitz–Thompson estimate of |J|: mean over all walks of 1/p (0 for
    * failures) — T_n(u) of §6.
    */
  def sizeEstimate: Double =
    if (requested == 0) 0.0 else samples.map(t => 1.0 / t.p).sum / requested
}

/** Welford accumulator for the online HT estimator of §6.1: mean is the
  * running |J| estimate (updated exactly by the paper's incremental
  * formula), variance feeds the confidence interval of Eq. 3.
  */
final class WalkStats {
  private var n0 = 0
  private var mean0 = 0.0
  private var m2 = 0.0

  /** Record a walk with estimator term f = 1/p(t), or 0 for a failure. */
  def add(f: Double): Unit = {
    n0 += 1
    val d = f - mean0
    mean0 += d / n0 // |J|_{S∪t0} = |J|_S + (f − |J|_S)/(m+1)
    m2 += d * (f - mean0)
  }

  def n: Int = n0
  def mean: Double = mean0
  def variance: Double = if (n0 < 2) 0.0 else m2 / (n0 - 1)

  /** Half-width of the level-z confidence interval, z·σ/√n. */
  def ciHalfWidth(z: Double = 1.96): Double =
    if (n0 == 0) Double.PositiveInfinity else z * math.sqrt(variance / n0)
}

object WalkStats {
  /** Statistics of a batch: a term 1/p per success, then a 0 per failure. */
  def of(b: WalkBatch): WalkStats = {
    val s = new WalkStats
    b.samples.foreach(t => s.add(1.0 / t.p))
    (0 until b.failures).foreach(_ => s.add(0.0))
    s
  }
}

/** Vectorized wander join (§6.1): a batch of W random walks over the join
  * data graph is one DataFrame; every walk step joins the frontier with
  * the next relation and picks one joinable tuple uniformly per walk via a
  * window (`row_number` over a random order), dividing the walk's
  * probability by the observed degree. No join is materialized; walks that
  * hit a dangling tuple die (inner join drops them).
  */
object WanderJoin {

  /** Spark schema of the canonical output tuple of `join`. */
  def canonSchema(join: JoinSpec): StructType = {
    val fields = join.relations.flatMap(r => r.df.schema.fields).map(f => f.name -> f).toMap
    StructType(canonCols(join).map(fields))
  }

  /** Canonical (sorted) column order shared by all joins of a workload. */
  def canonCols(join: JoinSpec): Seq[String] = join.outputCols.sorted

  /** Run `n` random walks over `join`. */
  def walkBatch(join: JoinSpec, n: Int, seed: Long): WalkBatch = {
    if (n == 0) return WalkBatch(IndexedSeq.empty, 0)
    val spark = join.root.rel.df.sparkSession
    val rootCount = join.root.rel.count

    var frontier = spark.range(n.toLong)
      .select(
        col("id").as("__wid"),
        least(lit(rootCount - 1), floor(rand(seed) * rootCount)).cast("long").as("__rid"))
      .join(join.root.rel.indexed, "__rid")
      .drop("__rid")
      .withColumn("__p", lit(1.0 / rootCount))

    join.root.edgesPreOrder.zipWithIndex.foreach { case (edge, step) =>
      val w = Window.partitionBy("__wid")
      val ord = w.orderBy(rand(seed + 1000 + step))
      frontier = frontier.join(edge.child.rel.df, edge.attrs)
        .withColumn("__d", count(lit(1)).over(w))
        .withColumn("__rn", row_number().over(ord))
        .filter(col("__rn") === 1)
        .withColumn("__p", col("__p") / col("__d"))
        .drop("__d", "__rn")
    }

    val cols = canonCols(join)
    val rows = frontier.select((cols.map(col) :+ col("__p")): _*).collect()
    val samples = rows.iterator.map { r =>
      JTuple(IndexedSeq.range(0, cols.size).map(r.get), r.getDouble(cols.size))
    }.toIndexedSeq
    WalkBatch(samples, n)
  }

  /** Which of `tuples` (canonical values of `src`-schema tuples) are
    * members of `join`? Returns the member keys. Implemented as the
    * semi-join membership probe of [[JoinSpec.members]] over a small
    * candidate DataFrame.
    */
  def membership(join: JoinSpec, tuples: Seq[JTuple]): Set[String] = {
    if (tuples.isEmpty) return Set.empty
    val spark = join.root.rel.df.sparkSession
    val schema = canonSchema(join)
    val distinctVals = tuples.groupBy(_.key).map(_._2.head).toSeq
    val rows: java.util.List[Row] = new java.util.ArrayList[Row]()
    distinctVals.foreach(t => rows.add(Row.fromSeq(t.values)))
    val cands = spark.createDataFrame(rows, schema)
    val cols = canonCols(join)
    val kept = join.members(cands).select(cols.map(col): _*).collect()
    kept.iterator.map(JTuple.key).toSet
  }
}
