package repro.core

import repro.core.union.{CoverBook, UnionStats}
import repro.core.walk.JTuple

/** A reference model of [[CoverBook]]: the same bookkeeping done the plain
  * way. T holds every accepted copy with its join, and a revision filters
  * T by value, so it costs O(|T|). A multi-copy offer is a loop of single
  * offers. PureSpec checks that the book and this model agree step by step.
  */
final class ReferenceCoverBook(stats: UnionStats) {
  private val target = scala.collection.mutable.ArrayBuffer.empty[(JTuple, Int)]
  private val owner = scala.collection.mutable.HashMap.empty[IndexedSeq[Any], Int]

  def size: Int = target.size

  def tuples: IndexedSeq[(JTuple, Int)] = target.toIndexedSeq

  def owners: scala.collection.Map[IndexedSeq[Any], Int] = owner

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

  def offer(t: JTuple, j: Int, copies: Int): Boolean = {
    var anyAccepted = false
    (0 until copies).foreach(_ => anyAccepted |= offer(t, j))
    anyAccepted
  }

  def redraw(j: Int)(draw: => JTuple): Boolean = {
    var accepted = false
    var redraws = 0
    while (!accepted && redraws < CoverBook.MaxRedraws) {
      redraws += 1
      accepted = offer(draw, j)
    }
    if (!accepted) stats.redrawGiveUps += 1
    accepted
  }

  def retain(keep: ((JTuple, Int)) => Boolean): Int = {
    val before = target.size
    target.filterInPlace(keep)
    before - target.size
  }

  def chunk(count: Int, alpha: Double, share: Double = 1.0, lo: Int = 32): Int = {
    val want = math.ceil((count - target.size + 1) * alpha * 1.5).toInt
    math.max(lo, math.min(CoverBook.MaxChunk, math.ceil(want * share).toInt))
  }
}
