package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Edge-list graph over a Spark DataFrame.
  *
  * Schema of `edges`: (src: Long, dst: Long, weight: Double).
  *
  * Invariants (enforced by [[GraphOps.canonicalize]]):
  *   - no self loops, no duplicate edges;
  *   - undirected graphs store each edge once with `src < dst`.
  *
  * Vertex ids are `0 until numVertices`; vertices may be isolated (appear in
  * no edge) — sparsification keeps the vertex set fixed (edge sparsification
  * only, §2.1 of the paper).
  *
  * The instance is the only owner of state derived from its edges. Each
  * view below is computed on first use and kept for the instance's
  * lifetime: the collected [[edgeArrays]] (one Spark action), and from
  * them [[numEdges]], [[totalDegreeArray]], the CSRs [[csr]] and
  * [[undirectedCsr]], the [[undirected]] graph, the Jaccard/SCAN
  * [[similarityScores]] frame and the effective [[resistances]]. So every
  * consumer of a graph sees the same edge set even when `edges` is a
  * non-deterministic plan (Random and K-Neighbor draw from `rand(seed)`,
  * whose sample depends on how the plan is partitioned), and a graph whose
  * views are shared — a `Datasets` graph swept by several figures — pays
  * for each once. `copy`, [[withEdges]] and [[undirected]] build new
  * instances, which start with none of these computed.
  *
  * The memoised arrays are shared, not copied: [[GraphOps.collectEdges]]
  * returns them as they are, `FlowNetwork` keeps references to them, and
  * the CSRs' arc→edge index and [[resistances]] are aligned with them.
  * Callers must never mutate them, nor the other memoised arrays.
  *
  * [[numEdges]] is the length of [[edgeArrays]], so counting a graph
  * collects it and is subject to the driver-collection cap of
  * [[GraphOps.collectEdges]] (2M vertices), failing with the same message.
  *
  * @param name a label for messages and derived graphs' names (`#und`,
  *             `#LD-0.5`, …). It is not a cache identity: two graphs that
  *             share a name share no state.
  */
final case class SparkGraph(
    name: String,
    edges: DataFrame,
    directed: Boolean,
    weighted: Boolean,
    numVertices: Long) {

  def spark: SparkSession = edges.sparkSession

  /** The edges as driver arrays (src, dst, weight), in the row order
    * `collect()` returns. One Spark action per instance; shared, never to be
    * mutated (see class doc).
    */
  lazy val edgeArrays: (Array[Int], Array[Int], Array[Double]) = {
    require(numVertices <= 2_000_000, s"graph $name too large for driver collection")
    val rows = edges.select("src", "dst", "weight").collect()
    val s = new Array[Int](rows.length)
    val d = new Array[Int](rows.length)
    val w = new Array[Double](rows.length)
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      s(i) = r.getLong(0).toInt; d(i) = r.getLong(1).toInt; w(i) = r.getDouble(2)
      i += 1
    }
    (s, d, w)
  }

  /** Number of (canonical) edges. */
  lazy val numEdges: Long = edgeArrays._1.length.toLong

  /** Undirected (total) degree of every vertex `0 until numVertices`,
    * isolated vertices included as 0 — the array form of
    * [[GraphOps.totalDegrees]]. Shared, never to be mutated.
    */
  lazy val totalDegreeArray: Array[Int] = {
    val (s, d, _) = edgeArrays
    val deg = new Array[Int](numVertices.toInt)
    var i = 0
    while (i < s.length) { deg(s(i)) += 1; deg(d(i)) += 1; i += 1 }
    deg
  }

  /** Arcs as stored, built from [[edgeArrays]] in edge order: out-arcs
    * for a directed graph, both directions otherwise. The substrate of the
    * traversal sparsifiers and of the direction-aware metrics (PageRank,
    * eigenvector, Katz).
    */
  lazy val csr: Csr =
    Csr.fromArrays(numVertices.toInt, edgeArrays._1, edgeArrays._2, edgeArrays._3, bothDirections = !directed)

  /** Both directions of every stored edge — the view of the distance,
    * component and clustering metrics. For an undirected graph this is
    * [[csr]] itself; for a directed one, reciprocal arcs stay separate
    * (unlike [[undirected]], which merges them).
    */
  lazy val undirectedCsr: Csr =
    if (!directed) csr
    else Csr.fromArrays(numVertices.toInt, edgeArrays._1, edgeArrays._2, edgeArrays._3, bothDirections = true)

  /** Undirected version of this graph (paper §3.1 step 2: symmetrize then
    * canonicalize): the graph itself if undirected, else one new instance
    * named `name#und`, so sparsifiers that need undirected input share its
    * views (scores, resistances) across every cell of a sweep.
    */
  lazy val undirected: SparkGraph =
    if (!directed) this
    else copy(name = s"$name#und", edges = GraphOps.canonicalize(edges, directed = false), directed = false)

  /** Per-edge similarity scores (see [[sparsifiers.SimilarityScores]]),
    * persisted and counted on first use. They do not depend on the prune
    * rate, so every ρ of a sweep reuses them.
    */
  lazy val similarityScores: DataFrame = sparsifiers.SimilarityScores.compute(this)

  /** Exact effective resistance of every edge, aligned with [[edgeArrays]]
    * (see [[sparsifiers.EffectiveResistance]]). The dense solve is the
    * one-time cost the paper also amortises (§4.6); shared, never to be
    * mutated.
    */
  lazy val resistances: Array[Double] = sparsifiers.EffectiveResistance.resistances(this)

  /** Replace the edge set, keeping direction/weight/vertex-count metadata. */
  def withEdges(e: DataFrame, suffix: String): SparkGraph =
    copy(name = s"$name#$suffix", edges = e)
}

/** Pure DataFrame transformations over [[SparkGraph]]s. */
object GraphOps {

  /** Dedupe, drop self loops, and canonicalize orientation for undirected
    * graphs (src < dst). Duplicate edges keep the max weight.
    */
  def canonicalize(edges: DataFrame, directed: Boolean): DataFrame = {
    val noLoop = edges.filter(col("src") =!= col("dst"))
    val oriented =
      if (directed) noLoop
      else noLoop.select(
        least(col("src"), col("dst")) as "src",
        greatest(col("src"), col("dst")) as "dst",
        col("weight"))
    oriented.groupBy("src", "dst").agg(max("weight") as "weight")
  }

  /** Arc view: one row per directed arc. Undirected edges appear in both
    * directions; directed edges appear as stored. Columns (u, v, weight).
    */
  def arcs(g: SparkGraph): DataFrame = {
    val fwd = g.edges.select(col("src") as "u", col("dst") as "v", col("weight"))
    if (g.directed) fwd
    else fwd.union(g.edges.select(col("dst") as "u", col("src") as "v", col("weight")))
  }

  /** Degree per vertex with at least one edge: undirected degree, or
    * out-degree for directed graphs (the paper uses out-degree, Table 2).
    * Columns (v, deg). Isolated vertices are absent — callers that need
    * them use `numVertices`.
    */
  def degrees(g: SparkGraph): DataFrame =
    arcs(g).groupBy(col("u") as "v").agg(count(lit(1)) as "deg")

  /** Undirected (total) degree, regardless of graph direction. */
  def totalDegrees(g: SparkGraph): DataFrame = {
    val fwd = g.edges.select(col("src") as "v")
    val bwd = g.edges.select(col("dst") as "v")
    fwd.union(bwd).groupBy("v").agg(count(lit(1)) as "deg")
  }

  /** Count of vertices with no incident edge. */
  def isolatedCount(g: SparkGraph): Long =
    g.totalDegreeArray.count(_ == 0).toLong

  /** Driver arrays (src, dst, weight) — the substrate for inherently
    * sequential algorithms. Returns the graph's memoised
    * [[SparkGraph.edgeArrays]]: collected on first use, shared afterwards,
    * never to be mutated. Fails fast if the graph does not fit comfortably
    * on the driver.
    */
  def collectEdges(g: SparkGraph): (Array[Int], Array[Int], Array[Double]) = g.edgeArrays

  /** The subgraph of `g` made of the edges `i` of [[SparkGraph.edgeArrays]]
    * with `keep.get(i)`, named `g.name#suffix`.
    */
  def subgraph(g: SparkGraph, keep: java.util.BitSet, suffix: String): SparkGraph = {
    val (s, d, w) = g.edgeArrays
    val ks = Array.newBuilder[Int]; val kd = Array.newBuilder[Int]; val kw = Array.newBuilder[Double]
    var i = keep.nextSetBit(0)
    while (i >= 0) { ks += s(i); kd += d(i); kw += w(i); i = keep.nextSetBit(i + 1) }
    fromArrays(g.spark, s"${g.name}#$suffix", ks.result(), kd.result(), kw.result(),
      g.directed, g.weighted, g.numVertices)
  }

  /** Build a SparkGraph from driver-side arrays (canonicalized). */
  def fromArrays(
      spark: SparkSession,
      name: String,
      src: Array[Int],
      dst: Array[Int],
      weight: Array[Double],
      directed: Boolean,
      weighted: Boolean,
      numVertices: Long): SparkGraph = {
    import spark.implicits._
    val df = src.indices
      .map(i => (src(i).toLong, dst(i).toLong, weight(i)))
      .toDF("src", "dst", "weight")
    SparkGraph(name, canonicalize(df, directed), directed, weighted, numVertices)
  }

  /** Unweighted convenience overload (all weights 1). */
  def fromPairs(
      spark: SparkSession,
      name: String,
      pairs: Seq[(Int, Int)],
      directed: Boolean,
      numVertices: Long): SparkGraph =
    fromArrays(spark, name, pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.length)(1.0), directed, weighted = false, numVertices)
}
