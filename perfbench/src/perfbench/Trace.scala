package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Counts one span accumulates. Spark counts come from [[SparkCounters]];
  * JVM counts are read at the span's boundaries.
  */
final class Counts {
  var jobs = 0L
  var stages = 0L
  var stagesSkipped = 0L
  var tasks = 0L
  var emptyTasks = 0L
  var taskCpuNs = 0L
  var shuffleBytes = 0L
  var resultBytes = 0L
  var gcMs = 0L
  var allocBytes = 0L

  def +=(o: Counts): Unit = {
    jobs += o.jobs; stages += o.stages; stagesSkipped += o.stagesSkipped
    tasks += o.tasks; emptyTasks += o.emptyTasks; taskCpuNs += o.taskCpuNs
    shuffleBytes += o.shuffleBytes; resultBytes += o.resultBytes
    gcMs += o.gcMs; allocBytes += o.allocBytes
  }
}

/** One timed interval of the run. Times are nanoseconds since the run's
  * origin; `cpuNs` is process CPU time spent inside the span. `own` holds
  * the counts attributed to this span and not to a child span.
  */
final class Span(
    val id: Int,
    val parent: Int,
    val name: String,
    val attrs: Seq[(String, String)],
    val start: Long) {
  var end: Long = -1L
  var cpuNs: Long = 0L
  val own = new Counts

  def duration: Long = end - start
  def attr(k: String): String = attrs.collectFirst { case (`k`, v) => v }.getOrElse("")
}

/** In-memory span recorder for the single driver thread that runs the sweep.
  *
  * With `traced = false` it records only span times and process CPU, which
  * the end-to-end metrics need. With `traced = true` it also tags every
  * Spark job with the open span (a local property the listener reads) and
  * charges GC time and driver-thread allocation to the span open when they
  * happen.
  */
final class Tracer(val traced: Boolean) {
  import Tracer._

  private val origin = System.nanoTime()
  val spans = mutable.ArrayBuffer.empty[Span]
  private val byIdIndex = new java.util.concurrent.ConcurrentHashMap[Int, Span]
  private val stack = mutable.Stack.empty[Span]
  private var sc: Option[SparkContext] = None
  private var lastGcMs = 0L
  private var lastAlloc = 0L
  private var lastCpu = 0L
  /** Driver-thread time spent in the tracer's own boundary bookkeeping. */
  var bookkeepingNs = 0L

  def now: Long = System.nanoTime() - origin

  /** Span by id; safe to call from the listener thread. */
  def byId(id: Int): Option[Span] = Option(byIdIndex.get(id))

  /** Spark context whose jobs are tagged with the open span (traced only). */
  def attach(c: SparkContext): Unit = if (traced) {
    sc = Some(c)
    stack.headOption.foreach(s => c.setLocalProperty(SpanProperty, s.id.toString))
  }

  def open(name: String, attrs: (String, String)*): Span = {
    val b0 = System.nanoTime()
    settle()
    val s = new Span(spans.size, stack.headOption.map(_.id).getOrElse(-1), name, attrs, now)
    spans += s
    byIdIndex.put(s.id, s)
    stack.push(s)
    tag()
    bookkeepingNs += System.nanoTime() - b0
    s
  }

  def close(s: Span): Unit = {
    val b0 = System.nanoTime()
    require(stack.headOption.contains(s), s"span ${s.name} closed out of order")
    settle()
    s.end = now
    stack.pop()
    tag()
    bookkeepingNs += System.nanoTime() - b0
  }

  def span[A](name: String, attrs: (String, String)*)(f: => A): A = {
    val s = open(name, attrs: _*)
    try f finally close(s)
  }

  /** Charge process CPU (and, when traced, GC and allocation) since the
    * last boundary to the span open until now.
    */
  private def settle(): Unit = {
    val cpu = processCpuNs()
    val gc = if (traced) gcMs() else 0L
    val alloc = if (traced) threadAllocBytes() else 0L
    stack.headOption.foreach { s =>
      s.cpuNs += cpu - lastCpu
      s.own.gcMs += gc - lastGcMs
      s.own.allocBytes += alloc - lastAlloc
    }
    lastCpu = cpu; lastGcMs = gc; lastAlloc = alloc
  }

  private def tag(): Unit =
    sc.foreach(_.setLocalProperty(SpanProperty, stack.headOption.map(_.id.toString).orNull))

  /** CPU of a span including its children's. */
  def cpuIncl(s: Span): Long = subtree(s).map(_.cpuNs).sum

  /** Spans in the subtree rooted at `s` (including `s`). */
  def subtree(s: Span): Seq[Span] = {
    val kids = spans.groupBy(_.parent)
    val out = mutable.ArrayBuffer.empty[Span]
    def go(x: Span): Unit = { out += x; kids.getOrElse(x.id, Nil).foreach(go) }
    go(s)
    out.toSeq
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  def processCpuNs(): Long = os.getProcessCpuTime
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  def threadAllocBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)
}

/** Benchmark-side Spark listener: charges each job, its stages and their
  * tasks to the span whose id the submitting thread carried as a local
  * property. Jobs without the property (none are expected) go to the
  * `unattributed` counts.
  */
final class SparkCounters(spans: Int => Option[Span]) extends SparkListener {
  val unattributed = new Counts
  private val stageOwner = mutable.Map.empty[Int, Counts]
  /** Listener-thread CPU spent in these callbacks. */
  @volatile var callbackNs = 0L

  private def timed(f: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    f
    callbackNs += System.nanoTime() - t0
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val c = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
      .flatMap(id => spans(id.toInt)).map(_.own).getOrElse(unattributed)
    c.jobs += 1
    c.stages += e.stageInfos.size
    // A stage a later job reuses was computed (and counted) by its first job.
    e.stageInfos.foreach(si => if (!stageOwner.contains(si.stageId)) stageOwner(si.stageId) = c)
    c.stagesSkipped += e.stageInfos.size
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = timed {
    stageOwner.get(e.stageInfo.stageId).foreach(_.stagesSkipped -= 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val c = stageOwner.getOrElse(e.stageId, unattributed)
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.taskCpuNs += m.executorCpuTime
      c.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      c.resultBytes += m.resultSize
      val records = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead +
        m.shuffleWriteMetrics.recordsWritten + m.outputMetrics.recordsWritten
      if (records == 0) c.emptyTasks += 1
    }
  }
}
