package perfbench

import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier, Sparsifiers => S}
import repro.graphs.Datasets

/** Self-tests of the benchmark: span arithmetic on a synthetic tree, the
  * gate on a planted faulty sparsifier, and the default-seed graphs against
  * `Datasets.get`. Run with `python3 perfbench/run.py --selftest`.
  */
object SelfTest {

  private var passed = 0
  private def check(cond: Boolean, what: String): Unit = {
    if (!cond) { Console.err.println(s"selftest FAILED: $what"); sys.exit(1) }
    passed += 1
  }

  private def span(id: Int, parent: Int, name: String, start: Long, end: Long, attrs: (String, String)*): Span = {
    val s = new Span(id, parent, name, attrs, start)
    s.end = end
    s
  }

  def spanArithmetic(): Unit = {
    val spans = Seq(
      span(0, -1, "run", 0, 100),
      span(1, 0, "setup", 0, 20, "kind" -> "cold"),
      span(2, 1, "graphs.build", 2, 8),
      span(3, 1, "graphs.first_count", 8, 18),
      span(4, 0, "cell", 20, 60, "sparsifier" -> "LD"),
      span(5, 4, "sparsify", 20, 30, "sparsifier" -> "LD"),
      span(6, 4, "materialise", 30, 35),
      span(7, 4, "metric", 35, 55, "metric" -> "degree_dist"),
      span(8, 0, "cell", 60, 100, "sparsifier" -> "ER-u"),
      span(9, 8, "sparsify", 60, 90, "sparsifier" -> "ER-u"),
      span(10, 8, "materialise", 90, 92),
      span(11, 8, "metric", 92, 100, "metric" -> "degree_dist"))
    spans(6).own.jobs = 3; spans(7).own.jobs = 12; spans(11).own.jobs = 9
    spans(7).own.tasks = 10; spans(7).own.emptyTasks = 4

    val kids = spans.groupBy(_.parent)
    check(Report.selfNs(spans(0), kids(0)) == 0, "run fully covered by children")
    check(Report.selfNs(spans(1), kids(1)) == 4, "setup self = 20 - 6 - 10")
    check(Report.selfNs(spans(4), kids(4)) == 5, "cell self = 40 - 10 - 5 - 20")
    // Overlapping and out-of-window children are counted once and clipped.
    val odd = Seq(span(20, 0, "a", 10, 40), span(21, 0, "b", 30, 50), span(22, 0, "c", 90, 120))
    check(Report.selfNs(spans(0), odd) == 100 - 40 - 10, "union of overlapping children")
    val self = Report.selfSeconds(spans)
    check(math.abs(self("cell") - 5e-9) < 1e-15, "cell self summed over cells = 5 + 0")

    val m = Report.perLayer(spans, new Counts, 0L, 0L).toMap
    check(m("cells").value == 2, "two cells")
    check(m("spark.jobs_per_cell").value == 12.0, "(3 + 12 + 9) jobs / 2 cells")
    check(m("harness.materialise_jobs_per_cell").value == 1.5, "3 jobs / 2 materialise spans")
    check(m("metric_jobs_per_call.degree_dist").value == 10.5, "(12 + 9) jobs / 2 calls")
    check(m("spark.empty_task_ratio").value == 0.4, "4 empty of 10 tasks")
    check(m("sparsify_s.LD").value == 10e-9 && m("sparsify_s.RN").value == 0, "per-sparsifier time")
    check(m("er.first_cell_sparsify_share").value == 0.75, "30 of the 40-ns first ER cell")
    check(m("graphs.first_count_s").value == 10e-9, "first count under the cold set-up")
    check(Report.ratio(5, 0) == 0.0, "ratio over an empty base is 0")
  }

  /** Returns every input edge plus one that is not in the input. */
  final class AddsEdge extends Sparsifier {
    val name = "Faulty"; val abbrev = "FAULT"
    val supportsDirected = true
    val pruneRateControl = PruneRateControl.Fine
    val deterministic = true
    def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
      val (s, d, w) = GraphOps.collectEdges(g)
      val kept = s.length - math.round(rho * s.length).toInt
      GraphOps.fromArrays(g.spark, s"${g.name}#fault", s.take(kept - 1) :+ 0, d.take(kept - 1) :+ (g.numVertices.toInt - 1),
        w.take(kept - 1) :+ 1.0, g.directed, g.weighted, g.numVertices)
    }
  }

  def plantedFault(spark: org.apache.spark.sql.SparkSession): Unit = {
    // A path: the planted edge (0, n-1) is not in it.
    val n = 40
    val g = GraphOps.fromPairs(spark, "selftest-path", (0 until n - 1).map(i => (i, i + 1)), directed = false, n.toLong)
    val wl = Workload("selftest", Workloads.proteins, Seq(new AddsEdge, S.random),
      rhos = Seq(0.5), seeds = 1, metrics = Seq(Workloads.isolated))
    val gate = new Gate(g.name)
    val runner = new Runner(new Tracer(traced = false), wl, gate, EdgeIndex.of(g))
    runner.runPass(g, verify = true)
    check(gate.records.size == 2, "both cells checked")
    check(gate.failedCount == 1, s"exactly the faulty cell fails (${gate.failures.mkString("; ")})")
    check(gate.failures.forall(_.startsWith("(selftest-path, FAULT, rho=0.5, seed=7)")),
      s"failure names dataset, sparsifier, rho and seed: ${gate.failures.mkString("; ")}")
    check(gate.failures.exists(_.contains("not input edges")), "failure says why")
  }

  def defaultSeedGraphs(spark: org.apache.spark.sql.SparkSession): Unit =
    Workloads.all.map(_.recipe).foreach { r =>
      val ours = r.build(spark, Main.DefaultSeed)
      val ref = Datasets.get(spark, r.name, r.scale)
      check(ours.name == ref.name && ours.numVertices == ref.numVertices, s"${r.name}: same name and vertex count")
      val (a, b) = (GraphOps.collectEdges(ours), GraphOps.collectEdges(ref))
      def set(e: (Array[Int], Array[Int], Array[Double])) = e._1.indices.map(i => (e._1(i), e._2(i), e._3(i))).toSet
      check(set(a) == set(b), s"${r.name}: default seed reproduces Datasets.get")
      val other = r.build(spark, 1)
      check(set(GraphOps.collectEdges(other)) != set(a), s"${r.name}: another seed gives another graph")
    }

  def main(args: Array[String]): Unit = {
    spanArithmetic()
    val spark = Main.session(args.headOption.getOrElse(""))
    try {
      plantedFault(spark)
      defaultSeedGraphs(spark)
    } finally spark.stop()
    println(s"selftest: $passed checks passed")
  }
}
