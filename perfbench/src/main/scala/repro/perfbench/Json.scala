package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}

/** The JSON documents the benchmark writes, built with json4s. */
object Json {

  def metrics(ms: Seq[(String, Double, String)]): JObject = JObject(ms.map { case (n, v, u) =>
    require(!v.isNaN && !v.isInfinite, s"metric $n = $v is not a finite number")
    n -> JObject("value" -> JDouble(v), "unit" -> JString(u))
  }.toList)

  /** The result line: exactly `correct`, `attempted`, `failed`, `metrics`. */
  def result(correct: Boolean, attempted: Long, failed: Long,
             ms: Seq[(String, Double, String)]): String =
    compact(render(JObject("correct" -> JBool(correct), "attempted" -> JLong(attempted),
      "failed" -> JLong(failed), "metrics" -> metrics(ms))))

  /** The traced run's spans, SQL executions, jobs and metrics, kept in
    * memory during the run and written here at its end.
    */
  def writeTrace(path: Path, provenance: JValue, t: SparkTrace,
                 ms: Seq[(String, Double, String)]): Unit = {
    val spans = t.spans.toList.sortBy(_.id).map(s => JObject("id" -> JInt(s.id),
      "parent" -> JInt(s.parent), "layer" -> JString(s.layer),
      "start_ns" -> JLong(s.startNs), "end_ns" -> JLong(s.endNs)))
    val sql = t.sql.values.toList.map(s => JObject("execution" -> JLong(s.id),
      "root" -> JBool(s.root), "frame" -> JString(s.frame), "bench_layer" -> JString(s.benchLayer),
      "start_ms" -> JLong(s.startMs), "end_ms" -> JLong(s.endMs)))
    val jobs = t.jobs.toList.map { case (id, (layer, exec)) =>
      JObject("job" -> JInt(id), "bench_layer" -> JString(layer), "execution" -> JLong(exec))
    }
    val doc = JObject("provenance" -> provenance, "metrics" -> metrics(ms),
      "spans" -> JArray(spans), "sql_executions" -> JArray(sql), "jobs" -> JArray(jobs))
    Files.createDirectories(path.getParent)
    Files.write(path, compact(render(doc)).getBytes(StandardCharsets.UTF_8))
  }
}
