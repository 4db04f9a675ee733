package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: the traced
  * benchmark run waits for every posted event before it reads its spans.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
