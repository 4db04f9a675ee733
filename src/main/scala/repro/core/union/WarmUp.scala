package repro.core.union

import repro.core._
import repro.core.histogram.HistogramOverlap
import repro.core.walk._

/** Result of a RANDOM-WALK warm-up: the estimated parameters, the walk
  * batches (Algorithm 2 reuses their tuples), and the membership tables
  * `memberships((j, i))`: one flag per sample of join j, in order, set when
  * it is a tuple of join i.
  */
final case class RandomWalkWarmup(params: UnionParams,
                                  batches: IndexedSeq[WalkBatch],
                                  memberships: Map[(Int, Int), IndexedSeq[Boolean]])

/** The warm-up phase of Algorithm 1 (§4): produce `{|J_j|}, {|O_Δ|}` (and
  * therefore `{|J'_j|}, |U|`) by one of the framework's instantiations.
  */
object WarmUp {

  /** HISTOGRAM-BASED instantiation (§5): degree statistics only. */
  def histogram(joins: Seq[JoinSpec]): UnionParams = HistogramOverlap.estimate(joins)

  /** RANDOM-WALK instantiation (§6): `walksPerJoin` wander-join walks per
    * join estimate |J_j| (HT), membership probes of each join's samples
    * against every other join estimate p̂_Δ, and Eq. 2 gives |O_Δ| anchored
    * at the smallest-index join of Δ.
    */
  def randomWalk(joins: Seq[JoinSpec], walksPerJoin: Int, seed: Long): RandomWalkWarmup = {
    val n = joins.size
    val batches = IndexedSeq.tabulate(n)(j => WanderJoin.walkBatch(joins(j), walksPerJoin, seed + 37 * j))
    assemble(joins, batches)
  }

  /** §6.1's adaptive stopping rule: walk each join in batches until the
    * size estimate's relative CI half-width (level `z`) drops below
    * `epsilon`, or `maxWalks` walks have been spent — the paper terminates
    * at 90% confidence or 1,000 samples.
    */
  def randomWalkAdaptive(joins: Seq[JoinSpec], epsilon: Double = 0.1,
                         z: Double = 1.96, batch: Int = 200, maxWalks: Int = 1000,
                         seed: Long = 42): RandomWalkWarmup = {
    val n = joins.size
    val batches = IndexedSeq.tabulate(n) { j =>
      var acc = WanderJoin.walkBatch(joins(j), batch, seed + 37 * j)
      var round = 1
      def settled(b: WalkBatch): Boolean = {
        val s = WalkStats.of(b)
        s.mean > 0 && s.ciHalfWidth(z) <= epsilon * s.mean
      }
      while (!settled(acc) && acc.requested < maxWalks) {
        val more = WanderJoin.walkBatch(joins(j), batch, seed + 37 * j + 1000 * round)
        acc = WalkBatch(acc.samples ++ more.samples, acc.requested + more.requested)
        round += 1
      }
      acc
    }
    assemble(joins, batches)
  }

  private def assemble(joins: Seq[JoinSpec], batches: IndexedSeq[WalkBatch]): RandomWalkWarmup = {
    val memb = memberships(joins, batches)
    RandomWalkWarmup(paramsFrom(joins.size, batches.map(WalkStats.of(_).mean), batches, memb), batches, memb)
  }

  /** Membership tables: `(j, i)` ↦ one flag per walk sample of join j, in
    * order, set when it is a tuple of join i; for every ordered pair of
    * distinct joins.
    */
  def memberships(joins: Seq[JoinSpec], batches: IndexedSeq[WalkBatch]): Map[(Int, Int), IndexedSeq[Boolean]] =
    (for {
      j <- joins.indices
      i <- joins.indices if i != j
    } yield (j, i) -> WanderJoin.membership(joins(i), batches(j).samples)).toMap

  /** Assemble UnionParams from walk-based sizes + membership tables —
    * shared by the warm-up and by Algorithm 2's backtracking updates.
    * Every |O_Δ| (|J_j| when Δ = {j}) is anchored at the smallest join of
    * Δ. An anchor with no walk yet (`requested == 0`) has no estimate, so
    * that entry keeps its value in `previous` when one is given.
    */
  def paramsFrom(n: Int, sizes: Seq[Double], batches: IndexedSeq[WalkBatch],
                 memberships: Map[(Int, Int), IndexedSeq[Boolean]],
                 previous: Option[UnionParams] = None): UnionParams = {
    val overlaps = (1 to n).flatMap { k =>
      (0 until n).combinations(k).map { idx =>
        val d = idx.toSet
        val est =
          if (previous.isDefined && batches(d.min).requested == 0) previous.get.o(d)
          else if (d.size == 1) sizes(d.head)
          else {
            val anchor = d.min
            val others = (d - anchor).toSeq
            val pHat = RandomWalkOverlap.membershipFraction(
              batches(anchor).samples,
              s => others.forall(i => memberships((anchor, i))(s)))
            RandomWalkOverlap.overlapEstimate(sizes(anchor), pHat)
          }
        d -> est
      }
    }.toMap
    UnionParams(n, HistogramOverlap.monotonize(n, overlaps))
  }
}
