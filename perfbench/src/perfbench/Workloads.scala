package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{GraphOps, SparkGraph, Sparsifier, Sparsifiers => S}
import repro.graphs.GraphGen
import repro.metrics._

/** A metric evaluated on (original, sparsified) inside the sweep closure,
  * with the range its value must lie in.
  */
final case class MetricDef(name: String, lo: Double, hi: Double)(val f: (SparkGraph, SparkGraph) => Double)

/** A dataset recipe from `repro.graphs.Datasets`, rebuilt from the same
  * public `GraphGen` calls. `offset` shifts every generator seed; offset 0
  * reproduces `Datasets.get(spark, name, scale)` edge for edge.
  */
final case class Recipe(name: String, scale: Double)(val pairs: Long => (Set[(Int, Int)], Int)) {
  def graphName(offset: Long): String = if (offset == 0) s"$name@$scale" else s"$name@$scale~$offset"

  def build(spark: SparkSession, offset: Long): SparkGraph = {
    val (ps, n) = pairs(offset)
    GraphOps.fromPairs(spark, graphName(offset), ps.toSeq.sorted, directed = false, n.toLong)
  }
}

final case class Workload(
    name: String,
    recipe: Recipe,
    sparsifiers: Seq[Sparsifier],
    rhos: Seq[Double],
    seeds: Int,
    metrics: Seq[MetricDef],
    /** Reference values on the original graph, computed during set-up. */
    reference: SparkGraph => Unit = _ => ())

object Workloads {

  private def sc(x: Int, scale: Double): Int = math.max(8, (x * scale).toInt)

  val proteins: Recipe = Recipe("ogbn-proteins", 0.5) { o =>
    val n = sc(1500, 0.5)
    val sbm = GraphGen.sbm(n, 2, pIn = 0.05, pOut = 0.008, seed = 103 + o)
    val hubs = GraphGen.barabasiAlbert(n, 3, 105 + o)
    (GraphGen.connect(sbm ++ hubs, n, 107 + o), n)
  }

  val hepPh: Recipe = Recipe("ca-HepPh", 1.0) { o =>
    val n = sc(1400, 1.0)
    val ws = GraphGen.wattsStrogatz(n, 12, 0.15, 67 + o)
    GraphGen.withSatellites(ws, n, nSatellites = 3, satSize = math.max(6, n / 80), 71 + o)
  }

  val degreeDist = MetricDef("degree_dist", 0.0, Double.MaxValue)(DegreeDistribution.distance)
  val isolated = MetricDef("isolated_ratio", 0.0, 1.0)((_, h) => Connectivity.isolatedRatio(h))
  val spsp = MetricDef("spsp_stretch", 1.0 - 1e-9, Double.MaxValue)((o, h) =>
    Distances.spspStretch(o, h, nPairs = 1500).meanStretch)
  val ecc = MetricDef("ecc_stretch", 0.0, Double.MaxValue)((o, h) =>
    Distances.eccentricityStretch(o, h, nSources = 150).meanStretch)
  val louvain = MetricDef("louvain", 1.0, Double.MaxValue)((_, h) =>
    Louvain.numCommunities(Louvain.cluster(h, 0)).toDouble)
  val maxFlow = MetricDef("max_flow", 0.0, Double.MaxValue)((o, h) =>
    MaxFlow.flowStretch(o, h, nPairs = 120).meanStretch)
  val quadForm = MetricDef("quadratic_form", 0.0, Double.MaxValue)((o, h) =>
    QuadraticForm.meanRatio(o, h, nVectors = 100))

  val all: Seq[Workload] = Seq(
    // Every step runs in Catalyst and driver compute is near zero, so this
    // isolates the cost of re-planning and re-executing lazy plans.
    Workload("df-proteins", proteins,
      Seq(S.random, S.kNeighbor, S.localDegree, S.localSimilarity, S.lSpar, S.gSpar, S.scan),
      rhos = Seq(0.5), seeds = 1,
      metrics = Seq(degreeDist, isolated)),
    // Spark only collects and counts: the collectEdges -> DriverAdj/Csr path,
    // and the dense ER solve the first ER cell pays.
    Workload("driver-hepph", hepPh,
      Seq(S.rankDegree, S.forestFire, S.spanningForest, S.tSpanner, S.erUnweighted, S.erWeighted),
      rhos = Seq(0.3, 0.7), seeds = 1,
      metrics = Seq(spsp, ecc, louvain, maxFlow, quadForm),
      reference = g => Louvain.numCommunities(Louvain.cluster(g, 0))),
  )

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"no workload '$n' (have ${all.map(_.name).mkString(", ")})"))

  /** Sparsifiers measured per layer, in report order. */
  val sparsifierNames: Seq[String] = S.all.map(_.abbrev)
  val metricNames: Seq[String] = Seq(degreeDist, isolated, spsp, ecc, louvain, maxFlow, quadForm).map(_.name)
}
