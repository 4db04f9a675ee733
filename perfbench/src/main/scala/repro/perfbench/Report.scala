package repro.perfbench

import repro.core.union.{OnlineUnionSampler, UnionStats}

/** How the request loop's wall time splits. Each part is a self time:
  *
  *  - `sparkS`: SQL executions started inside a request;
  *  - `joinSelfS`: the join layer (`core.join.draw` spans) minus its SQL;
  *  - `unionSelfS`: requests minus draws minus the rest of their SQL,
  *    i.e. the union layer's driver work;
  *  - `unattributedS`: loop wall time that no request span covers.
  *
  * Requests are timed by their own spans and the loop by its own clock, so
  * `unattributedS` is measured, not defined to close the sum. The loop
  * only issues requests, so it is near zero when the spans are right. SQL
  * times come from listener event times and the others from the driver
  * clock, so a self time below zero means a span was attributed to a call
  * it did not run in.
  */
final case class RequestBreakdown(loopS: Double, requestS: Double, drawS: Double,
                                  sparkS: Double, sparkInDrawS: Double) {
  def joinSelfS: Double = drawS - sparkInDrawS
  def unionSelfS: Double = requestS - drawS - (sparkS - sparkInDrawS)
  def unattributedS: Double = loopS - requestS
}

/** The per-layer metrics of a traced run. */
final class Report(t: SparkTrace, stats: Seq[UnionStats],
                   warmup: Option[WarmupWalks], drawsWalk: Boolean) {

  private val setupLayers = Set("setup", "core.histogram", "core.union.rw_warmup",
    "core.join.ew_prepare", "core.join.eo_prepare")
  private val requestLayers = Set("core.union.request", "core.join.draw")

  private def spanS(layer: String): Double = t.spans.filter(_.layer == layer).map(_.seconds).sum
  private def jobsIn(layers: Set[String]): Long = t.jobs.values.count(j => layers(j._1)).toLong
  private def rootSql = t.sql.values.filter(_.root)
  private def sqlS(p: SqlSpan => Boolean): Double = rootSql.filter(p).map(_.seconds).sum
  private def frameJobs(frame: String): Long =
    t.jobs.values.count(j => t.sql.get(j._2).exists(_.frame == frame)).toLong

  def requestJobs: Long = jobsIn(requestLayers)

  def breakdown(loopS: Double): RequestBreakdown = RequestBreakdown(loopS,
    spanS("core.union.request"), spanS("core.join.draw"),
    sqlS(s => requestLayers(s.benchLayer)), sqlS(_.benchLayer == "core.join.draw"))

  private def ratio(a: Double, b: Double): Double = if (b <= 0) 0.0 else a / b

  def metrics(loopS: Double): Seq[(String, Double, String)] = {
    def sum(f: UnionStats => Int): Double = stats.map(f(_).toDouble).sum
    val online = stats.collect { case s: OnlineUnionSampler#OnlineStats => s }
    def osum(f: OnlineUnionSampler#OnlineStats => Int): Double = online.map(f(_).toDouble).sum
    val w = warmup.getOrElse(WarmupWalks(0, 0))
    val drawWalks = if (drawsWalk) sum(_.walkAttempts) else 0.0
    val drawWalkOk = if (drawsWalk) drawWalks - sum(_.walkFailures) else 0.0
    val b = breakdown(loopS)
    val membership = rootSql.filter(_.frame == "core.walk.membership")
    val accepted = sum(_.accepted)
    val poolHits = osum(_.poolHits)
    val poolRejected = osum(_.poolRejected)
    Seq(
      ("core.histogram.estimate_s", spanS("core.histogram"), "s"),
      ("core.histogram.jobs", jobsIn(Set("core.histogram")).toDouble, "count"),
      ("core.stats.spark_s", sqlS(_.frame == "core.stats"), "s"),
      ("core.walk.batch_spark_s", sqlS(_.frame == "core.walk.batch"), "s"),
      ("core.walk.batch_jobs", frameJobs("core.walk.batch").toDouble, "count"),
      ("core.walk.walks", w.started + drawWalks, "count"),
      ("core.walk.success_ratio", ratio(w.succeeded + drawWalkOk, w.started + drawWalks), "ratio"),
      ("core.walk.membership_spark_s", membership.map(_.seconds).sum, "s"),
      ("core.walk.membership_jobs", frameJobs("core.walk.membership").toDouble, "count"),
      ("core.walk.membership_calls", membership.size.toDouble, "count"),
      ("core.union.rw_warmup_s", spanS("core.union.rw_warmup"), "s"),
      ("core.union.rw_warmup_jobs", jobsIn(Set("core.union.rw_warmup")).toDouble, "count"),
      ("core.join.ew_prepare_s", spanS("core.join.ew_prepare"), "s"),
      ("core.join.ew_prepare_jobs", jobsIn(Set("core.join.ew_prepare")).toDouble, "count"),
      ("core.join.eo_prepare_s", spanS("core.join.eo_prepare"), "s"),
      ("core.join.eo_prepare_jobs", jobsIn(Set("core.join.eo_prepare")).toDouble, "count"),
      ("core.join.draw_s", b.drawS, "s"),
      ("core.join.draw_calls", t.spans.count(_.layer == "core.join.draw").toDouble, "count"),
      ("core.join.draw_jobs", jobsIn(Set("core.join.draw")).toDouble, "count"),
      ("core.join.tuples", sum(_.joinDraws), "count"),
      ("core.join.walk_attempts", sum(_.walkAttempts), "count"),
      ("core.join.walk_failures", sum(_.walkFailures), "count"),
      ("core.join.eo_rejected", sum(_.eoRejected), "count"),
      ("core.join.accept_ratio", ratio(sum(_.joinDraws), sum(_.walkAttempts)), "ratio"),
      ("core.union.self_s", b.requestS - b.drawS, "s"),
      ("core.union.join_draws", sum(_.joinDraws), "count"),
      ("core.union.accepted", accepted, "count"),
      ("core.union.rejected_dup", sum(_.rejectedDup), "count"),
      ("core.union.revisions", sum(_.revisions), "count"),
      ("core.union.revision_removed", sum(_.revisionRemoved), "count"),
      ("core.union.accept_ratio", ratio(accepted, sum(_.joinDraws)), "ratio"),
      ("core.union.pool_hits", poolHits, "count"),
      ("core.union.pool_rejected", poolRejected, "count"),
      ("core.union.pool_hit_ratio", ratio(poolHits, poolHits + poolRejected), "ratio"),
      ("core.union.backtracks", osum(_.backtracks), "count"),
      ("core.union.backtrack_removed", osum(_.backtrackRemoved), "count"),
      ("core.union.online_driver_s", if (online.isEmpty) 0.0 else b.requestS - b.sparkS, "s"),
      ("spark.setup_jobs", jobsIn(setupLayers).toDouble, "count"),
      ("trace.request_s", b.requestS, "s"),
      ("trace.request_spark_s", b.sparkS, "s"),
      ("trace.join_self_s", b.joinSelfS, "s"),
      ("trace.union_self_s", b.unionSelfS, "s"),
      ("trace.unattributed_s", b.unattributedS, "s"))
  }
}
