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
  *
  * The owner map holds one [[CoverBook.Owner]] record per value: its join,
  * how many of its copies are live in T, and a generation. Each entry of T
  * points at its value's record and remembers the generation it was
  * accepted under. A revision bumps the generation, which kills every older
  * copy at once, so it costs O(1) however large T is. Dead entries stay in
  * T until [[retain]] compacts it; [[size]] and [[tuples]] count and list
  * only the live ones.
  */
final class CoverBook(stats: UnionStats) {
  import CoverBook._

  private val target = scala.collection.mutable.ArrayBuffer.empty[Entry]
  private val owner = scala.collection.mutable.HashMap.empty[IndexedSeq[Any], Owner]
  private var live = 0

  def size: Int = live

  /** The accepted tuples, in acceptance order, with their owning join. */
  def tuples: IndexedSeq[(JTuple, Int)] =
    target.iterator.filter(_.live).map(e => (e.t, e.owner.join)).toIndexedSeq

  /** The owner of every value seen, keyed by the tuple's `values`. */
  def owners: scala.collection.Map[IndexedSeq[Any], Int] = owner.map { case (v, o) => v -> o.join }

  /** Offer a draw `t` of join `j`; true iff it is accepted into T. */
  def offer(t: JTuple, j: Int): Boolean = offer(t, j, 1)

  /** Offer `copies` ≥ 1 instances of a draw `t` of join `j` with one owner
    * lookup; the counters move as for `copies` single offers. True iff they
    * are accepted into T.
    */
  def offer(t: JTuple, j: Int, copies: Int): Boolean = {
    require(copies >= 1, s"copies must be at least 1, was $copies")
    val o = owner.getOrElseUpdate(t.values, new Owner(j))
    if (o.join < j) { stats.rejectedDup += copies; return false }
    if (o.join > j) {
      stats.revisions += 1
      stats.revisionRemoved += o.live
      live -= o.live
      o.live = 0
      o.gen += 1
      o.join = j
    }
    var c = 0
    while (c < copies) { target += new Entry(t, o, o.gen); c += 1 }
    o.live += copies; live += copies; stats.accepted += copies
    true
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

  /** Keep only the live entries of T that satisfy `keep`, asked in
    * acceptance order (Algorithm 2's backtracking), and drop the dead ones;
    * the owner map is left as it is. Returns how many live entries were
    * removed.
    */
  def retain(keep: ((JTuple, Int)) => Boolean): Int = {
    val before = live
    target.filterInPlace { e =>
      e.live && (keep((e.t, e.owner.join)) || { e.owner.live -= 1; live -= 1; false })
    }
    before - live
  }

  /** Refill size for the draw buffer of a join selected with probability
    * `alpha`: 1.5× the draws still expected from it for a sample of
    * `count`, scaled by `share` and clamped to [`lo`, [[CoverBook.MaxChunk]]].
    */
  def chunk(count: Int, alpha: Double, share: Double = 1.0, lo: Int = 32): Int = {
    val want = math.ceil((count - live + 1) * alpha * 1.5).toInt
    math.max(lo, math.min(CoverBook.MaxChunk, math.ceil(want * share).toInt))
  }
}

object CoverBook {
  val MaxRedraws = 10000

  /** The largest refill of a draw buffer. */
  val MaxChunk = 512

  /** A value's owning join, its copies live in T, and the generation its
    * live copies were accepted under.
    */
  private final class Owner(var join: Int) {
    var live = 0
    var gen = 0
  }

  /** One copy in T: live while its value's generation has not moved on. */
  private final class Entry(val t: JTuple, val owner: Owner, gen: Int) {
    def live: Boolean = owner.gen == gen
  }

  /** The join whose cumulative selection weight first exceeds `u` (the last
    * join when round-off leaves `u` above the final sum).
    */
  def pick(cum: IndexedSeq[Double], u: Double): Int =
    cum.indexWhere(u < _) match { case -1 => cum.size - 1; case i => i }
}
