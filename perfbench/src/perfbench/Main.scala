package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.DrainListeners
import org.apache.spark.sql.SparkSession
import repro.core.{SparkGraph, Sparsifier}
import repro.harness.Sweep

/** Runs one benchmark workload through `Sweep.runMulti` and writes its
  * result record. Usage (normally via `perfbench/run.py`):
  *
  * {{{
  * perfbench.Main --workload df-proteins --seed 0 --seconds 10 --trace 0 \
  *   --out result.json --spans spans.json --golden perfbench/golden.tsv
  * }}}
  *
  * Whole passes of the workload's grid run until at least `--seconds` of
  * cell time is measured. Each pass uses a fresh graph identity, so the
  * name-keyed score and resistance caches miss exactly as in a fresh
  * process, and every pass costs what one figure run costs.
  */
object Main {

  val DefaultSeed = 0L
  val ShufflePartitions = 8

  final case class Opts(
      workload: String = "",
      seed: Long = DefaultSeed,
      seconds: Double = 10,
      traced: Boolean = false,
      out: String = "",
      spansOut: String = "",
      golden: String = "",
      writeGolden: Boolean = false,
      localDir: String = "")

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: t => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t => parse(t, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: t => parse(t, o.copy(traced = v == "1"))
    case "--out" :: v :: t => parse(t, o.copy(out = v))
    case "--spans" :: v :: t => parse(t, o.copy(spansOut = v))
    case "--golden" :: v :: t => parse(t, o.copy(golden = v))
    case "--write-golden" :: t => parse(t, o.copy(writeGolden = true))
    case "--local-dir" :: v :: t => parse(t, o.copy(localDir = v))
    case Nil => o
    case other => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }

  def cores: Int = math.min(2, Runtime.getRuntime.availableProcessors())

  def session(localDir: String): SparkSession = {
    val b = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
    if (localDir.nonEmpty) b.config("spark.local.dir", localDir).config("spark.sql.warehouse.dir", s"$localDir/warehouse")
    b.getOrCreate()
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    val wl = Workloads.byName(o.workload)
    val t = new Tracer(o.traced)
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val run = t.open("run", "workload" -> wl.name, "seed" -> o.seed.toString)

    // Cold set-up: SparkSession, graph generation, first count, reference.
    val coldSetup = t.open("setup", "kind" -> "cold")
    var spark = session(o.localDir)
    t.attach(spark.sparkContext)
    val counters = new SparkCounters(t.byId)
    if (o.traced) spark.sparkContext.addSparkListener(counters)
    val g = t.span("graphs.build")(wl.recipe.build(spark, o.seed))
    val m = t.span("graphs.first_count")(g.numEdges)
    t.span("graphs.reference")(wl.reference(g))
    t.close(coldSetup)
    val setups = collection.mutable.ArrayBuffer((System.currentTimeMillis() - jvmStart) / 1e3)

    val gate = new Gate(g.name)
    val orig = t.span("verify")(EdgeIndex.of(g))

    val runner = new Runner(t, wl, gate, orig)
    var pass = 0
    while (pass == 0 || runner.cellNs / 1e9 < o.seconds) {
      val gp = if (pass == 0) g else g.copy(name = s"${g.name}#pass$pass")
      t.span("pass", "pass" -> pass.toString)(runner.runPass(gp, verify = pass == 0))
      pass += 1
    }
    if (o.traced) DrainListeners(spark.sparkContext)
    val retainedMb = t.span("heap") {
      System.gc(); System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }

    t.span("verify") {
      if (o.seed == DefaultSeed && o.golden.nonEmpty && !o.writeGolden && Files.exists(Paths.get(o.golden)))
        gate.checkGolden(Gate.parseGolden(Files.readAllLines(Paths.get(o.golden), UTF_8).asScala.toSeq))
      gate.checkShapes()
    }

    // Warm set-ups in the same JVM (untraced runs only): a fresh
    // SparkSession, graph and first count each time.
    if (!o.traced) (0 until 2).foreach { i =>
      spark.stop()
      val t0 = System.nanoTime()
      t.span("setup", "kind" -> s"warm$i") {
        spark = session(o.localDir)
        val gw = t.span("graphs.build")(wl.recipe.build(spark, o.seed))
        t.span("graphs.first_count")(gw.numEdges)
        t.span("graphs.reference")(wl.reference(gw))
      }
      setups += (System.nanoTime() - t0) / 1e9
    }
    t.close(run)
    spark.stop()

    val cells = t.spans.count(_.name == "cell")
    val cellS = runner.cellNs / 1e9
    val metrics: Seq[(String, Report.M)] =
      if (o.traced) Report.perLayer(t.spans.toSeq, counters.unattributed, t.bookkeepingNs, counters.callbackNs)
      else Seq(
        "cells_per_s" -> Report.M(cells / cellS, "1/s"),
        "cpu_s_per_cell" -> Report.M(runner.cellCpuNs / 1e9 / cells, "s"),
        "setup_s" -> Report.M(median(setups.toSeq), "s"),
        "retained_heap_mb" -> Report.M(retainedMb, "MB"))

    gate.failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
    val config = Json.obj(
      "workload" -> Json.str(wl.name), "seed" -> o.seed.toString, "traced" -> o.traced.toString,
      "dataset" -> Json.str(g.name), "vertices" -> g.numVertices.toString, "edges" -> m.toString,
      "scale" -> wl.recipe.scale.toString,
      "sparsifiers" -> Json.arr(wl.sparsifiers.map(s => Json.str(s.abbrev))),
      "rhos" -> Json.arr(wl.rhos.map(_.toString)), "sweep_seeds" -> wl.seeds.toString,
      "metrics" -> Json.arr(wl.metrics.map(x => Json.str(x.name))),
      "passes" -> pass.toString, "setups_s" -> Json.arr(setups.toSeq.map(_.toString)),
      "master" -> Json.str(s"local[$cores]"), "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "shuffle_partitions" -> ShufflePartitions.toString,
      "xmx_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_version" -> Json.str(org.apache.spark.SPARK_VERSION),
      "jvm_version" -> Json.str(System.getProperty("java.vm.name") + " " + System.getProperty("java.runtime.version")))
    val result = Json.obj(
      "correct" -> (gate.failedCount == 0).toString,
      "attempted" -> cells.toString,
      "failed" -> gate.failedCount.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v) =>
        k -> Json.obj("value" -> Json.num(v.value), "unit" -> Json.str(v.unit)) }: _*),
      "config" -> config,
      "failures" -> Json.arr(gate.failures.toSeq.map(Json.str)))
    write(o.out, result)
    if (o.spansOut.nonEmpty) write(o.spansOut, Json.obj(
      "config" -> config,
      "cells" -> Json.arr(gate.records.toSeq.map(r => Json.obj(
        "dataset" -> Json.str(r.id.dataset), "sparsifier" -> Json.str(r.id.sparsifier),
        "rho" -> r.id.rho.toString, "seed" -> r.id.seed.toString, "achieved_rho" -> Json.num(r.achievedRho),
        "kept" -> r.kept.toString, "digest" -> Json.str(r.digest),
        "values" -> Json.obj(r.values.map { case (k, v) => k -> Json.num(v) }: _*)))),
      "spans" -> Json.arr(t.spans.toSeq.map(s => Json.obj(
        "id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "start_ns" -> s.start.toString, "end_ns" -> s.end.toString, "cpu_ns" -> s.cpuNs.toString,
        "attrs" -> Json.obj(s.attrs.map { case (k, v) => k -> Json.str(v) }: _*),
        "jobs" -> s.own.jobs.toString, "stages" -> s.own.stages.toString, "tasks" -> s.own.tasks.toString,
        "gc_ms" -> s.own.gcMs.toString, "alloc_bytes" -> s.own.allocBytes.toString)))))
    if (o.writeGolden && o.golden.nonEmpty) {
      val lines = gate.records.filter(r => Gate.goldenSparsifiers(r.id.sparsifier)).map(Gate.goldenLine)
      Files.write(Paths.get(o.golden), (lines.mkString("\n") + "\n").getBytes(UTF_8),
        java.nio.file.StandardOpenOption.CREATE, java.nio.file.StandardOpenOption.APPEND)
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def write(path: String, json: String): Unit =
    if (path.nonEmpty) Files.write(Paths.get(path), json.getBytes(UTF_8))
}

/** Runs passes of one workload, timing each layer from outside: a
  * delegating [[Sparsifier]] shim opens the cell and times `apply`, the
  * interval from its return to the first metric call is Sweep's
  * `h.numEdges` materialisation, and each metric call is timed inside the
  * `runMulti` closure.
  */
final class Runner(t: Tracer, wl: Workload, gate: Gate, orig: EdgeIndex) {
  var cellNs = 0L
  var cellCpuNs = 0L
  private var open: Option[(Span, Span, Sparsifier, Double, Long)] = None

  private final class Shim(inner: Sparsifier) extends Sparsifier {
    val name = inner.name
    val abbrev = inner.abbrev
    val supportsDirected = inner.supportsDirected
    val pruneRateControl = inner.pruneRateControl
    val deterministic = inner.deterministic
    override val supportsWeighted = inner.supportsWeighted
    override val supportsUnconnected = inner.supportsUnconnected
    override val changesWeights = inner.changesWeights

    def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
      val cell = t.open("cell", "dataset" -> g.name, "sparsifier" -> abbrev, "rho" -> rho.toString, "seed" -> seed.toString)
      val h = t.span("sparsify", "sparsifier" -> abbrev)(inner(g, rho, seed))
      open = Some((cell, t.open("materialise"), inner, rho, seed))
      h
    }
  }

  def runPass(g: SparkGraph, verify: Boolean): Unit = {
    val shims = wl.sparsifiers.map(new Shim(_))
    Sweep.runMulti(g, shims, wl.rhos, wl.seeds) { (o, h) =>
      val (cell, mat, sp, rho, seed) = open.get
      open = None
      t.close(mat)
      val values = wl.metrics.map(md => t.span("metric", "metric" -> md.name)(md.f(o, h)))
      t.close(cell)
      cellNs += cell.duration
      cellCpuNs += t.cpuIncl(cell)
      if (verify) t.span("verify")(gate.check(orig, sp, rho, seed, h, wl.metrics, values))
      values
    }
  }
}
