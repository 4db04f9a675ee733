package repro.core.join

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.core._
import repro.core.stats.DegreeStats
import repro.core.walk.{JTuple, WalkBatch, WanderJoin}

/** Per-draw accounting of a single-join sampler, consumed by the union
  * sampler's time-breakdown experiment and by the reuse pools: how many
  * walks were attempted, how many died on dangling tuples, how many
  * successful walks were rejected by the accept/reject test — and the
  * rejected tuples themselves (they carry a valid p(t) and can be reused
  * by Algorithm 2).
  */
final case class DrawStats(walkAttempts: Int, walkFailures: Int, rejected: Int,
                           rejectedTuples: IndexedSeq[JTuple] = IndexedSeq.empty) {
  def +(o: DrawStats): DrawStats =
    DrawStats(walkAttempts + o.walkAttempts, walkFailures + o.walkFailures,
      rejected + o.rejected, rejectedTuples ++ o.rejectedTuples)
}

/** i.i.d. uniform sampling from a single join (§3.2). */
trait JoinTupleSampler {
  def join: JoinSpec

  /** Draw `n` i.i.d. uniform tuples of the join (with replacement). */
  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats)

  /** Force weight/bound precomputation now (so experiment harnesses can
    * attribute it to the parameter-estimation phase, as the paper does).
    */
  def prepare(): Unit
}

/** EW — exact weights (Zhao et al.'s ground-truth instantiation).
  *
  * Bottom-up DP over the join tree computes, per tuple, the exact number
  * of join results it roots (`__w`): a leaf weighs 1; an inner tuple
  * weighs the product over child edges of the sum of joinable child
  * weights. All DP steps are DataFrame aggregations + joins. The total
  * root weight equals |J| exactly, and top-down weighted sampling draws
  * uniform join tuples with zero rejection.
  */
final class ExactWeightSampler(val join: JoinSpec) extends JoinTupleSampler {
  import ExactWeightSampler._

  join.root.edgesPreOrder.foreach { e =>
    require(e.attrs.forall(parentOf(join.root, e).rel.cols.contains),
      s"EW needs every edge attr in the direct parent (join ${join.name}); " +
        "trees derived from cyclic joins must use the EO/walk sampler")
  }

  private val wroot: WNode = weigh(join.root)

  /** Σ root weights — exactly |J|. */
  lazy val totalWeight: Double = {
    val r = wroot.wdf.agg(sum("__w")).head
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** p(t) of every returned tuple: uniform 1/|J|. */
  def tupleProbability: Double = if (totalWeight == 0) 0.0 else 1.0 / totalWeight

  /** Root ids and cumulative weights, collected once (ids + weights only —
    * never the relation payload).
    */
  private lazy val rootCdf: (Array[Long], Array[Double]) = {
    val rows = wroot.wdf.filter(col("__w") > 0).select("__rid", "__w")
      .orderBy("__rid").collect()
    val ids = rows.map(_.getLong(0))
    val cum = new Array[Double](rows.length)
    var acc = 0.0
    var i = 0
    while (i < rows.length) { acc += rows(i).getDouble(1); cum(i) = acc; i += 1 }
    (ids, cum)
  }

  def prepare(): Unit = { totalWeight; if (totalWeight > 0) rootCdf; () }

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0 || totalWeight == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val got = scala.collection.mutable.ArrayBuffer.empty[JTuple]
    var attempt = 0
    // The windowed weighted pick can (with ~1e-12 probability) lose a walk
    // to floating-point edge effects; top up until n are drawn.
    while (got.size < n && attempt < 8) {
      got ++= sampleOnce(n - got.size, seed + 7919L * attempt)
      attempt += 1
    }
    require(got.size == n, s"EW sampler lost walks persistently (${got.size}/$n)")
    (got.toIndexedSeq, DrawStats(n, 0, 0))
  }

  private def sampleOnce(n: Int, seed: Long): IndexedSeq[JTuple] = {
    val spark = join.root.rel.df.sparkSession
    val (ids, cum) = rootCdf
    val rng = new java.util.Random(seed)
    val total = cum.last
    val chosen = Array.fill(n) {
      val u = rng.nextDouble() * total
      var lo = 0; var hi = cum.length - 1
      while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) > u) hi = mid else lo = mid + 1 }
      ids(lo)
    }
    val rows: java.util.List[Row] = new java.util.ArrayList[Row]()
    chosen.zipWithIndex.foreach { case (rid, w) => rows.add(Row(w.toLong, rid)) }
    val schema = StructType(Seq(StructField("__wid", LongType), StructField("__rid", LongType)))
    var frontier = spark.createDataFrame(rows, schema)
      .join(wroot.wdf, "__rid").drop("__rid", "__w")
    val edges = wroot.allEdges
    edges.zipWithIndex.foreach { case (_, k) =>
      frontier = frontier.withColumn(s"__u$k", rand(seed + 31 * k) * (1 - 1e-12))
    }
    frontier = frontier.cache()
    frontier.count()

    edges.zipWithIndex.foreach { case ((edge, child), k) =>
      val cw = child.wdf.filter(col("__w") > 0).withColumnRenamed("__rid", "__crid")
      val joined = frontier.join(cw, edge.attrs)
      val wsp = Window.partitionBy("__wid")
      val cum = sum("__w").over(wsp.orderBy("__crid")
        .rowsBetween(Window.unboundedPreceding, Window.currentRow))
      val tot = sum("__w").over(wsp)
      frontier = joined
        .withColumn("__cum", cum)
        .withColumn("__tgt", col(s"__u$k") * tot)
        .filter(col("__cum") > col("__tgt"))
        .withColumn("__rn", row_number().over(wsp.orderBy("__crid")))
        .filter(col("__rn") === 1)
        .drop("__cum", "__tgt", "__rn", "__w", "__crid")
    }
    val cols = WanderJoin.canonCols(join)
    val out = frontier.select(cols.map(col): _*).collect()
    val p = tupleProbability
    out.iterator.map(r => JTuple(IndexedSeq.range(0, cols.size).map(r.get), p)).toIndexedSeq
  }

  private def weigh(t: JoinTree): WNode = {
    val kids = t.children.map(e => (e, weigh(e.child)))
    var df = t.rel.indexed
    kids.zipWithIndex.foreach { case ((e, kid), i) =>
      val agg = kid.wdf.groupBy(e.attrs.map(col): _*).agg(sum("__w").as(s"__s$i"))
      df = df.join(agg, e.attrs, "left")
        .withColumn(s"__s$i", coalesce(col(s"__s$i"), lit(0.0)))
    }
    val w =
      if (kids.isEmpty) lit(1.0)
      else kids.indices.map(i => col(s"__s$i")).reduceLeft(_ * _)
    val wdf = Rel.cached(df.withColumn("__w", w).drop(kids.indices.map(i => s"__s$i"): _*))
    wdf.count()
    WNode(wdf, kids)
  }
}

object ExactWeightSampler {
  private[join] final case class WNode(wdf: DataFrame, children: Seq[(JoinEdge, WNode)]) {
    /** (edge, child WNode) in the same pre-order the walks use. */
    def allEdges: Seq[(JoinEdge, WNode)] =
      children.flatMap { case (e, c) => (e, c) +: c.allEdges }
  }

  private def parentOf(root: JoinTree, edge: JoinEdge): JoinTree = {
    def find(t: JoinTree): Option[JoinTree] =
      if (t.children.exists(_ eq edge)) Some(t)
      else t.children.view.flatMap(e => find(e.child)).headOption
    find(root).get
  }
}

/** EO — extended Olken's: walk + accept/reject against the Olken size
  * bound W = |R_root| · Π_edges M_attrs(child) (§3.2). A successful walk
  * with probability p(t) is accepted with probability 1/(p(t)·W), which
  * makes every accepted tuple uniform (1/W per attempt). Dangling tuples
  * get weight 0 for free: their walks die at the inner join.
  *
  * `predicate` enforces a selection during sampling (§8.3, second
  * alternative): non-matching walk tuples are rejected, so accepted
  * tuples are uniform over σ_pred(J) — appropriate for predicates that
  * are not very selective.
  */
final class OlkenSampler(val join: JoinSpec,
                         predicate: Option[JTuple => Boolean] = None)
    extends JoinTupleSampler {

  /** The extended-Olken upper bound on |J|. */
  lazy val bound: Double =
    join.root.edgesPreOrder.foldLeft(join.root.rel.count.toDouble) { (acc, e) =>
      acc * DegreeStats.maxDegreeMulti(e.child.rel.df, e.attrs)
    }

  def prepare(): Unit = { bound; () }

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val rng = new java.util.Random(seed)
    val got = scala.collection.mutable.ArrayBuffer.empty[JTuple]
    var stats = DrawStats(0, 0, 0)
    var round = 0
    var rateEst = 0.2 // updated from observed acceptance
    while (got.size < n) {
      require(round < 1000, s"EO sampler: acceptance rate ~0 for join ${join.name}")
      val want = n - got.size
      val batch = math.min(65536, math.max(64, math.ceil(want / math.max(rateEst, 1e-4)).toInt))
      val wb = WanderJoin.walkBatch(join, batch, seed + 104729L * round + rng.nextInt(1 << 20))
      val rejected = scala.collection.mutable.ArrayBuffer.empty[JTuple]
      var predDropped = 0
      wb.samples.foreach { t =>
        val pAcc = 1.0 / (t.p * bound)
        if (!predicate.forall(_(t))) predDropped += 1
        // predicate-rejected tuples are dropped entirely: they are not in
        // σ_pred(J) and must not enter reuse pools either
        else if (rng.nextDouble() < pAcc) {
          if (got.size < n) got += t else rejected += t
        }
        else rejected += t
      }
      stats += DrawStats(batch, wb.failures, rejected.size + predDropped,
        rejected.toIndexedSeq)
      val acc = stats.walkAttempts - stats.walkFailures - stats.rejected
      rateEst = math.max(1e-3, acc.toDouble / math.max(1, stats.walkAttempts))
      round += 1
    }
    (got.toIndexedSeq, stats)
  }
}
