package repro.perfbench

import repro.core.union.{FullJoinUnion, UnionSample}
import repro.workloads.UnionWorkload

/** Exact answers for one generated workload, computed once per run outside
  * the timed regions: the key set of every join (from
  * [[FullJoinUnion.joinDfs]]) and |U| (from [[FullJoinUnion.unionSize]]).
  * Keys are built as `JTuple.key` builds them, from the canonical columns.
  */
final class GroundTruth(w: UnionWorkload) {
  val (joinKeys: IndexedSeq[Set[String]], unionSize: Long) = {
    val fju = new FullJoinUnion(w.joins)
    val keys = fju.joinDfs.map { df =>
      df.collect().iterator.map(r => (0 until r.length).map(i => String.valueOf(r.get(i))).mkString("␞")).toSet
    }.toIndexedSeq
    val u = fju.unionSize
    fju.joinDfs.foreach(_.unpersist(blocking = true))
    fju.unionDf.unpersist(blocking = true)
    require(keys.reduce(_ union _).size == u,
      s"union of the join key sets (${keys.reduce(_ union _).size}) differs from |U| = $u")
    (keys, u)
  }

  def joinSizes: IndexedSeq[Long] = joinKeys.map(_.size.toLong)

  /** Why a request's output is wrong, or None if it is right: exactly `n`
    * tuples, each a tuple of the join it is attributed to.
    */
  def check(out: UnionSample, n: Int): Option[String] =
    if (out.tuples.size != n) Some(s"returned ${out.tuples.size} tuples, asked for $n")
    else out.tuples.collectFirst {
      case (t, j) if j < 0 || j >= joinKeys.size || !joinKeys(j).contains(t.key) =>
        s"tuple ${t.key} is not in join $j"
    }
}

/** Per-join membership counts of every returned tuple, for `ratio_err`. */
final class ShareCounter(truth: GroundTruth) {
  private val inJoin = new Array[Long](truth.joinKeys.size)
  var total = 0L

  def add(out: UnionSample): Unit = out.tuples.foreach { case (t, _) =>
    total += 1
    truth.joinKeys.indices.foreach(j => if (truth.joinKeys(j).contains(t.key)) inJoin(j) += 1)
  }

  /** Mean over joins of |share of returned tuples in J_j − |J_j|/|U||. */
  def ratioErr: Double = {
    val u = truth.unionSize.toDouble
    truth.joinKeys.indices.map { j =>
      math.abs(inJoin(j).toDouble / math.max(1L, total) - truth.joinKeys(j).size / u)
    }.sum / truth.joinKeys.size
  }
}
