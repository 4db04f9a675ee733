package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared plumbing for the spark-submit entrypoints in jobs/.
  *
  * Every job takes positional overrides (documented per job) and prints
  * the table(s) it reproduces via [[repro.exp.Experiments.printTable]].
  */
object JobUtil {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def argD(args: Array[String], i: Int, default: Double): Double =
    if (args.length > i) args(i).toDouble else default

  def argI(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default
}
