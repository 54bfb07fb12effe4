package perfbench

import scala.collection.mutable

/** Arithmetic over a finished span tree: self times, per-layer sums and
  * ratios. Kept free of Spark so the self-test can feed it a synthetic tree.
  */
object Report {

  /** Duration of `s` minus the part of its interval its children cover. */
  def selfNs(s: Span, children: Seq[Span]): Long = {
    val iv = children.map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L; var curA = Long.MinValue; var curB = Long.MinValue
    iv.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) covered += curB - curA
    s.duration - covered
  }

  /** Self time per span name, in seconds. */
  def selfSeconds(spans: Seq[Span]): Map[String, Double] = {
    val kids = spans.groupBy(_.parent)
    spans.groupBy(_.name).map { case (name, ss) =>
      name -> ss.map(s => selfNs(s, kids.getOrElse(s.id, Nil))).sum / 1e9
    }
  }

  /** Counts of the spans and all their descendants. */
  def inclusive(spans: Seq[Span], roots: Seq[Span]): Counts = {
    val kids = spans.groupBy(_.parent)
    val c = new Counts
    def go(s: Span): Unit = { c += s.own; kids.getOrElse(s.id, Nil).foreach(go) }
    roots.foreach(go)
    c
  }

  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  /** A reported metric: value and unit. */
  final case class M(value: Double, unit: String)

  /** Per-layer metrics of a traced run. `unattributed` are Spark counts no
    * span claimed; they are reported so a gap in attribution shows.
    */
  def perLayer(spans: Seq[Span], unattributed: Counts, bookkeepingNs: Long, listenerNs: Long): Seq[(String, M)] = {
    val out = mutable.ArrayBuffer.empty[(String, M)]
    def put(n: String, v: Double, unit: String): Unit = out += n -> M(v, unit)
    val cells = spans.filter(_.name == "cell")
    val nCells = cells.size.toDouble
    val sweep = inclusive(spans, cells)
    val cellWallS = cells.map(_.duration).sum / 1e9

    put("cells", nCells, "count")
    put("spark.jobs_per_cell", ratio(sweep.jobs, nCells), "jobs/cell")
    put("spark.jobs", sweep.jobs.toDouble, "count")
    put("spark.stages", sweep.stages.toDouble, "count")
    put("spark.stages_skipped", sweep.stagesSkipped.toDouble, "count")
    put("spark.tasks", sweep.tasks.toDouble, "count")
    put("spark.empty_task_ratio", ratio(sweep.emptyTasks, sweep.tasks), "ratio")
    put("spark.task_cpu_s", sweep.taskCpuNs / 1e9, "s")
    put("spark.shuffle_bytes", sweep.shuffleBytes.toDouble, "bytes")
    put("spark.result_bytes", sweep.resultBytes.toDouble, "bytes")
    put("spark.unattributed_jobs", unattributed.jobs.toDouble, "count")
    put("jvm.alloc_mb", sweep.allocBytes / 1048576.0, "MB")
    put("jvm.gc_s", sweep.gcMs / 1e3, "s")

    val mat = spans.filter(_.name == "materialise")
    put("harness.materialise_s", mat.map(_.duration).sum / 1e9, "s")
    put("harness.materialise_jobs_per_cell", ratio(inclusive(spans, mat).jobs, mat.size), "jobs/cell")

    val sparsify = spans.filter(_.name == "sparsify")
    Workloads.sparsifierNames.foreach { a =>
      put(s"sparsify_s.$a", sparsify.filter(_.attr("sparsifier") == a).map(_.duration).sum / 1e9, "s")
    }
    val metric = spans.filter(_.name == "metric")
    Workloads.metricNames.foreach { n =>
      val ms = metric.filter(_.attr("metric") == n)
      put(s"metric_s.$n", ms.map(_.duration).sum / 1e9, "s")
      put(s"metric_jobs_per_call.$n", ratio(inclusive(spans, ms).jobs, ms.size), "jobs/call")
    }
    // The first ER cell of a run pays the dense resistance solve.
    val byId = spans.map(s => s.id -> s).toMap
    val firstEr = sparsify.find(_.attr("sparsifier").startsWith("ER-"))
    put("er.first_cell_sparsify_share",
      firstEr.map(s => ratio(s.duration, byId(s.parent).duration)).getOrElse(0.0), "ratio")

    val setup = spans.filter(s => s.name == "setup" && s.attr("kind") == "cold")
    def setupChild(n: String) = spans.filter(s => s.name == n && setup.exists(_.id == s.parent)).map(_.duration).sum / 1e9
    put("graphs.build_s", setupChild("graphs.build"), "s")
    put("graphs.first_count_s", setupChild("graphs.first_count"), "s")
    put("graphs.reference_s", setupChild("graphs.reference"), "s")
    put("graphs.first_count_jobs", inclusive(spans, spans.filter(s => s.name == "graphs.first_count")).jobs.toDouble, "count")

    val self = selfSeconds(spans)
    Seq("setup", "cell", "sparsify", "materialise", "metric", "verify").foreach { n =>
      put(s"self_s.$n", self.getOrElse(n, 0.0), "s")
    }
    put("trace.wall_s_per_cell", ratio(cellWallS, nCells), "s")
    put("trace.bookkeeping_s", (bookkeepingNs + listenerNs) / 1e9, "s")
    out.toSeq
  }
}
