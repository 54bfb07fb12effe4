package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so the
  * benchmark's counters are complete before they are read. The bus is
  * `private[spark]`, hence this package.
  */
object DrainListeners {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
