package repro.core.join

import repro.core._
import repro.core.walk.{JTuple, WanderJoin}

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
  * A bottom-up DP over the join's [[JoinIndex]], built once per sampler,
  * gives every row the exact number of join results it roots: a leaf row
  * weighs 1; an inner row weighs the product over child edges of the total
  * weight of its joinable child rows. Every edge maps each key group of the
  * child (the index's [[Rel.groups]]) to its positive-weight rows and their
  * prefix sums ([[ExactWeightSampler.Cdf]]). The total root weight is |J|
  * exactly, and a draw descends top-down — a binary search on the root CDF,
  * then one inside the parent's key group on every edge — so it is
  * uniform, has zero rejection and runs no Spark job.
  */
final class ExactWeightSampler(val join: JoinSpec) extends JoinTupleSampler {
  import ExactWeightSampler._

  private def direct(t: JoinTree): Boolean =
    t.children.forall(e => e.attrs.forall(t.rel.cols.contains) && direct(e.child))
  require(direct(join.root),
    s"EW needs every edge attr in the direct parent (join ${join.name}); " +
      "trees derived from cyclic joins must use the EO/walk sampler")

  private lazy val weights: Weights = Weights(join.index)

  /** Σ root weights — exactly |J|. */
  lazy val totalWeight: Double = weights.root.total

  /** p(t) of every returned tuple: uniform 1/|J|. */
  def tupleProbability: Double = if (totalWeight == 0) 0.0 else 1.0 / totalWeight

  def prepare(): Unit = { weights; () }

  def sample(n: Int, seed: Long): (IndexedSeq[JTuple], DrawStats) = {
    if (n == 0 || totalWeight == 0) return (IndexedSeq.empty, DrawStats(0, 0, 0))
    val ix = join.index
    val w = weights
    val rng = new java.util.Random(seed)
    val p = tupleProbability
    val picked = new Array[Int](ix.rows.size) // row id per node, pre-order
    val out = IndexedSeq.fill(n) {
      picked(0) = w.root.pick(rng.nextDouble() * w.root.total)
      w.edges.foreach { e =>
        val g = e.cdfs(picked(e.parent))
        picked(e.child) = g.pick(rng.nextDouble() * g.total)
      }
      JTuple(ix.tuple(picked), p)
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

  /** Edge `parent → child` of the index (nodes in pre-order): `cdfs(r)` is
    * the CDF over the child's group that parent row r joins, or null when
    * no child row joins it.
    */
  private final class Edge(val parent: Int, val child: Int, val cdfs: Array[Cdf])

  /** The DP's result: the root CDF and the index's edges in pre-order. */
  private final class Weights(val root: Cdf, val edges: IndexedSeq[Edge])

  private object Weights {
    def apply(ix: JoinIndex): Weights = {
      val w = ix.rows.map(rs => Array.fill(rs.length)(1.0))
      val cdfs = new Array[Array[Cdf]](ix.edges.size)
      // A node's children follow it in pre-order, so in reverse pre-order
      // their weights are final before the node's are computed.
      for (node <- ix.rows.indices.reverse; i <- ix.edges.indices if ix.edges(i).parent == node) {
        val e = ix.edges(i)
        val byKey = e.groups.map { case (k, ids) => k -> new Cdf(ids, w(e.child)) }
        val pAt = e.attrs.map(ix.rels(node).cols.indexOf)
        cdfs(i) = ix.rows(node).map(r => byKey.getOrElse(Rel.key(r, pAt), null))
        w(node).indices.foreach(r => w(node)(r) *= (if (cdfs(i)(r) == null) 0.0 else cdfs(i)(r).total))
      }
      new Weights(new Cdf(w(0).indices.toArray, w(0)),
        ix.edges.indices.map(i => new Edge(ix.edges(i).parent, ix.edges(i).child, cdfs(i))))
    }
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
    join.root.edgesPreOrder.foldLeft(join.index.rows(0).length.toDouble) { (acc, e) =>
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
