package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

import scala.collection.mutable

/** Timing of the benchmark's calls into the library.
  *
  * The untraced run uses [[Trace.Off]], whose `span` only runs the body, so
  * end-to-end metrics carry no tracing cost. The traced run uses
  * [[SparkTrace]].
  */
trait Trace {
  /** Run `body` as a span named `layer`, nested in the current span. */
  def span[T](layer: String)(body: => T): T
}

object Trace {
  object Off extends Trace {
    def span[T](layer: String)(body: => T): T = body
  }

  /** Local property (and job tag prefix) naming the innermost open span. */
  val LayerProperty = "bench.layer"
}

/** A span opened by the benchmark around one public library call. Times are
  * epoch nanoseconds: `System.nanoTime` shifted to the epoch once, so they
  * compare with the millisecond event times of Spark's listener bus.
  */
final case class Span(id: Int, parent: Int, layer: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** One SQL execution seen on the listener bus. `frame` is the layer named
  * after the innermost `repro.*` frame of its call site (see
  * [[SparkTrace.frameLayer]]); `benchLayer` is the benchmark span open when
  * it started.
  */
final case class SqlSpan(id: Long, root: Boolean, frame: String, benchLayer: String,
                         startMs: Long, var endMs: Long = -1L) {
  def seconds: Double = if (endMs < 0) 0.0 else (endMs - startMs) / 1e3
}

/** The traced run's recorder.
  *
  * - Benchmark spans: wall time of each public call, with nesting.
  * - Jobs: a [[SparkListener]] counts jobs per `bench.layer` local
  *   property, which [[span]] sets for the calls it wraps, and per SQL
  *   execution.
  * - SQL executions: a span per execution from its start and end events,
  *   attributed to the innermost `repro.*` frame of its call site.
  *
  * Everything stays in memory; [[Report]] reads it after the run.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener with Trace {
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()
  private def nowNs: Long = System.nanoTime() + epochOffsetNs

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[(Int, String)] = Nil

  // Listener-bus state, written from the bus thread.
  val sql: mutable.LinkedHashMap[Long, SqlSpan] = mutable.LinkedHashMap.empty
  /** Job id → (bench layer, SQL execution id or -1). */
  val jobs: mutable.LinkedHashMap[Int, (String, Long)] = mutable.LinkedHashMap.empty

  sc.addSparkListener(this)

  def span[T](layer: String)(body: => T): T = {
    val id = spans.size + open.size
    val parent = open.headOption.map(_._1).getOrElse(-1)
    val outer = open.headOption.map(_._2)
    open = (id, layer) :: open
    setLayer(Some(layer), outer)
    val start = nowNs
    try body
    finally {
      spans += Span(id, parent, layer, start, nowNs)
      open = open.tail
      setLayer(outer, Some(layer))
    }
  }

  private def setLayer(layer: Option[String], previous: Option[String]): Unit = {
    previous.foreach(l => sc.removeJobTag(tag(l)))
    sc.setLocalProperty(Trace.LayerProperty, layer.orNull)
    layer.foreach(l => sc.addJobTag(tag(l)))
  }

  private def tag(layer: String): String = s"${Trace.LayerProperty}:$layer"

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val p = e.properties
    val layer = Option(p).flatMap(x => Option(x.getProperty(Trace.LayerProperty))).getOrElse("")
    val exec = Option(p).flatMap(x => Option(x.getProperty("spark.sql.execution.id")))
      .map(_.toLong).getOrElse(-1L)
    jobs(e.jobId) = (layer, exec)
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        val layer = s.jobTags.collectFirst {
          case t if t.startsWith(Trace.LayerProperty + ":") => t.drop(Trace.LayerProperty.length + 1)
        }.getOrElse("")
        val root = s.rootExecutionId.forall(_ == s.executionId)
        sql(s.executionId) = SqlSpan(s.executionId, root, SparkTrace.frameLayer(s.details), layer, s.time)
      case end: SparkListenerSQLExecutionEnd =>
        sql.get(end.executionId).foreach(_.endMs = end.time)
      case _ =>
    }
  }

  /** Block until the listener bus has delivered every posted event. */
  def drain(): Unit = org.apache.spark.BenchBus.drain(sc)
}

object SparkTrace {

  /** Layer of a SQL execution, from the innermost `repro.*` frame of its
    * call site (`details` is Spark's long call-site form, innermost frame
    * first). Frames of the benchmark itself are skipped.
    */
  def frameLayer(details: String): String = {
    val frame = Option(details).iterator.flatMap(_.linesIterator).map(_.trim)
      .find(l => l.startsWith("repro.") && !l.startsWith("repro.perfbench."))
    frame match {
      case None => "other"
      case Some(f) =>
        val rules = Seq(
          "repro.core.walk.WanderJoin$.walkBatch" -> "core.walk.batch",
          "repro.core.walk.WanderJoin$.membership" -> "core.walk.membership",
          "repro.core.stats.DegreeStats" -> "core.stats",
          "repro.core.histogram." -> "core.histogram",
          "repro.core.Rel" -> "core.rel",
          "repro.core.join.ExactWeightSampler" -> "core.join.ew",
          "repro.core.join.OlkenSampler" -> "core.join.eo",
          "repro.core.union.FullJoinUnion" -> "groundtruth",
          "repro.workloads." -> "workloads")
        rules.collectFirst { case (prefix, layer) if f.startsWith(prefix) => layer }
          .getOrElse(f.takeWhile(_ != '('))
    }
  }
}
