package repro.core.join

import org.apache.spark.sql.Row
import repro.core._
import repro.core.walk.{JTuple, WanderJoin}

import scala.collection.mutable.ArrayBuffer

/** Per-draw accounting of a single-join sampler, consumed by the union
  * sampler's time-breakdown experiment and by Algorithm 2's size
  * estimates: how many walks were attempted, how many died on dangling
  * tuples, how many successful walks were rejected (by the accept/reject
  * test or a predicate) — and the successful walks not returned:
  * `rejectedTuples` holds the Olken-rejected tuples and EO's accepted
  * tuples beyond the `n` asked for, which `rejected` does not count. They
  * carry a valid p(t), so Algorithm 2 adds them to its HT size estimator;
  * it never pools them for reuse, because the rejected ones are
  * distributed ∝ p(t) − 1/W, not ∝ p(t).
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
  * A driver-side index, built once: every relation of the join tree as
  * its [[Rel.rows]]. The bottom-up DP gives every row the exact number of
  * join results it roots: a leaf row weighs 1; an inner row weighs the
  * product over child edges of the total weight of its joinable child
  * rows. Every edge maps each key group of the child ([[Rel.groups]]) to
  * its positive-weight rows and their prefix sums
  * ([[ExactWeightSampler.Cdf]]). The total root weight is |J| exactly,
  * and a draw descends top-down — a binary search on the root CDF, then
  * one inside the parent's key group on every edge — so it is uniform,
  * has zero rejection and runs no Spark job.
  */
final class ExactWeightSampler(val join: JoinSpec) extends JoinTupleSampler {
  import ExactWeightSampler._

  join.root.edgesPreOrder.foreach { e =>
    require(e.attrs.forall(parentOf(join.root, e).rel.cols.contains),
      s"EW needs every edge attr in the direct parent (join ${join.name}); " +
        "trees derived from cyclic joins must use the EO/walk sampler")
  }

  private lazy val index: Index = Index(join)

  /** Σ root weights — exactly |J|. */
  lazy val totalWeight: Double = index.root.total

  /** p(t) of every returned tuple: uniform 1/|J|. */
  def tupleProbability: Double = if (totalWeight == 0) 0.0 else 1.0 / totalWeight

  def prepare(): Unit = { index; () }

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0 || totalWeight == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val ix = index
    val rng = new java.util.Random(seed)
    val p = tupleProbability
    val picked = new Array[Int](ix.rows.size) // row id per node, pre-order
    val out = IndexedSeq.fill(n) {
      picked(0) = ix.root.pick(rng.nextDouble() * ix.root.total)
      ix.edges.foreach { e =>
        val g = e.groups(picked(e.parent))
        picked(e.child) = g.pick(rng.nextDouble() * g.total)
      }
      JTuple(ix.out.map { case (node, c) => ix.rows(node)(picked(node)).get(c) }, p)
    }
    (out, DrawStats(n, 0, 0))
  }
}

object ExactWeightSampler {

  /** The positive-weight entries among `ids`, with their prefix sums. A
    * weighted pick is a binary search. Zero weights are left out, so no
    * pick lands on one, not even when round-off puts `u` at the total.
    */
  final class Cdf(ids: Array[Int], weight: Array[Double]) {
    private val kept = ids.filter(weight(_) > 0)
    private val cum = kept.map(weight).scanLeft(0.0)(_ + _).tail

    def total: Double = if (cum.isEmpty) 0.0 else cum.last

    /** The entry whose cumulative weight first exceeds `u` (the last entry
      * when `u` is at or above the total).
      */
    def pick(u: Double): Int = {
      var lo = 0
      var hi = cum.length - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) > u) hi = mid else lo = mid + 1 }
      kept(lo)
    }
  }

  /** Edge `parent → child` (node numbers in pre-order): `groups(r)` is the
    * CDF over the child's [[Rel.groups]] group that parent row r joins, or
    * null when no child row joins it.
    */
  private final class Edge(val parent: Int, val child: Int, val groups: Array[Cdf])

  /** The driver-side index of a join: rows per node in pre-order, the root
    * CDF, the edges in pre-order and, per canonical output column, the
    * (node, column) it is read from.
    */
  private final class Index(val rows: IndexedSeq[Array[Row]], val root: Cdf,
                            val edges: IndexedSeq[Edge], val out: IndexedSeq[(Int, Int)])

  private object Index {
    def apply(join: JoinSpec): Index = {
      val rows = ArrayBuffer.empty[Array[Row]]
      val cols = ArrayBuffer.empty[Seq[String]]
      val edges = ArrayBuffer.empty[Edge]

      // Bottom-up DP. Nodes are numbered in pre-order, and an edge sorts
      // by its child, so sorted edges are in pre-order too.
      def weigh(t: JoinTree): Array[Double] = {
        val me = rows.size
        val rs = t.rel.rows
        rows += rs; cols += t.rel.cols
        val w = Array.fill(rs.length)(1.0)
        t.children.foreach { e =>
          val child = rows.size
          val cw = weigh(e.child)
          val byKey = e.child.rel.groups(e.attrs).map { case (k, ids) => k -> new Cdf(ids, cw) }
          val pAt = e.attrs.map(t.rel.cols.indexOf)
          val groups = rs.map(r => byKey.getOrElse(Rel.key(r, pAt), null))
          edges += new Edge(me, child, groups)
          w.indices.foreach(r => w(r) *= (if (groups(r) == null) 0.0 else groups(r).total))
        }
        w
      }

      val w = weigh(join.root)
      val out = WanderJoin.canonCols(join).map { c =>
        val node = cols.indexWhere(_.contains(c))
        (node, cols(node).indexOf(c))
      }
      new Index(rows.toIndexedSeq, new Cdf(w.indices.toArray, w),
        edges.sortBy(_.child).toIndexedSeq, out.toIndexedSeq)
    }
  }

  private def parentOf(root: JoinTree, edge: JoinEdge): JoinTree = {
    def find(t: JoinTree): Option[JoinTree] =
      if (t.children.exists(_ eq edge)) Some(t)
      else t.children.view.flatMap(e => find(e.child)).headOption
    find(root).get
  }
}

/** EO — extended Olken's: walk + accept/reject against the Olken size
  * bound W = |R_root| · Π_edges M_attrs(child) (§3.2), with M the
  * child's [[Rel.maxDegree]]. A successful walk
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
      acc * e.child.rel.maxDegree(e.attrs)
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
      // Olken-rejected and surplus accepted tuples, in walk order
      val rejected = scala.collection.mutable.ArrayBuffer.empty[JTuple]
      var surplus = 0
      var predDropped = 0
      wb.samples.foreach { t =>
        val pAcc = 1.0 / (t.p * bound)
        if (!predicate.forall(_(t))) predDropped += 1
        // predicate-rejected tuples are dropped entirely: they are not in
        // σ_pred(J) and must not enter reuse pools either
        else if (rng.nextDouble() < pAcc) {
          if (got.size < n) got += t else { rejected += t; surplus += 1 }
        }
        else rejected += t
      }
      stats += DrawStats(batch, wb.failures, rejected.size - surplus + predDropped,
        rejected.toIndexedSeq)
      val acc = stats.walkAttempts - stats.walkFailures - stats.rejected
      rateEst = math.max(1e-3, acc.toDouble / math.max(1, stats.walkAttempts))
      round += 1
    }
    (got.toIndexedSeq, stats)
  }
}
