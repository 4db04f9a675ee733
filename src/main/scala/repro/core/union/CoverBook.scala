package repro.core.union

import repro.core.walk.JTuple

/** The cover bookkeeping of Algorithm 1 (lines 6–12), shared by Algorithm 2:
  * the target sample T and the owner map `orig_join`.
  *
  * A value first seen from join i is owned by i. Re-drawing it from a
  * *later* join rejects the draw (line 8). Re-drawing it from an *earlier*
  * join is a revision: ownership moves to the earlier join and every copy
  * in T is removed before the new one is accepted (lines 10–12). Copies in
  * T always belong to the current owner, so the copies removed are exactly
  * those accepted under the later owner.
  */
final class CoverBook(stats: UnionStats) {
  private val target = scala.collection.mutable.ArrayBuffer.empty[(JTuple, Int)]
  private val owner = scala.collection.mutable.HashMap.empty[IndexedSeq[Any], Int]

  def size: Int = target.size

  /** The accepted tuples, in acceptance order, with their owning join. */
  def tuples: IndexedSeq[(JTuple, Int)] = target.toIndexedSeq

  /** The owner of every value seen, keyed by the tuple's `values`. */
  def owners: scala.collection.Map[IndexedSeq[Any], Int] = owner

  /** Offer a draw `t` of join `j`; true iff it is accepted into T. */
  def offer(t: JTuple, j: Int): Boolean = {
    val i = owner.getOrElseUpdate(t.values, j)
    if (i < j) { stats.rejectedDup += 1; return false }
    if (i > j) {
      stats.revisions += 1
      val before = target.size
      target.filterInPlace(_._1.values != t.values)
      stats.revisionRemoved += before - target.size
      owner(t.values) = j
    }
    target += ((t, j)); stats.accepted += 1; true
  }

  /** Offer draws of join `j` until one is accepted. Gives up after
    * [[CoverBook.MaxRedraws]] rejections, since an estimated-positive cover
    * can be truly empty, and lets the caller reselect a join. A give-up is
    * counted in `redrawGiveUps`.
    */
  def redraw(j: Int)(draw: => JTuple): Boolean = {
    var accepted = false
    var redraws = 0
    while (!accepted && redraws < CoverBook.MaxRedraws) {
      redraws += 1
      val t = draw
      val t0 = System.nanoTime()
      accepted = offer(t, j)
      stats.bookNs += System.nanoTime() - t0
    }
    if (!accepted) stats.redrawGiveUps += 1
    accepted
  }

  /** Keep only the entries of T that satisfy `keep` (Algorithm 2's
    * backtracking); the owner map is left as it is. Returns how many were
    * removed.
    */
  def retain(keep: ((JTuple, Int)) => Boolean): Int = {
    val before = target.size
    target.filterInPlace(keep)
    before - target.size
  }

  /** Refill size for the draw buffer of a join selected with probability
    * `alpha`: 1.5× the draws still expected from it for a sample of
    * `count`, scaled by `share` and clamped to [`lo`, [[CoverBook.MaxChunk]]].
    */
  def chunk(count: Int, alpha: Double, share: Double = 1.0, lo: Int = 32): Int = {
    val want = math.ceil((count - target.size + 1) * alpha * 1.5).toInt
    math.max(lo, math.min(CoverBook.MaxChunk, math.ceil(want * share).toInt))
  }
}

object CoverBook {
  val MaxRedraws = 10000

  /** The largest refill of a draw buffer. */
  val MaxChunk = 512

  /** The join whose cumulative selection weight first exceeds `u` (the last
    * join when round-off leaves `u` above the final sum).
    */
  def pick(cum: IndexedSeq[Double], u: Double): Int =
    cum.indexWhere(u < _) match { case -1 => cum.size - 1; case i => i }
}
