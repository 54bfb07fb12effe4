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
  * The edges are collected to the driver once per instance
  * ([[edgeArrays]]); [[numEdges]], [[GraphOps.collectEdges]] and
  * [[totalDegreeArray]] all read that one copy, so every consumer of a graph
  * sees the same edge set even when `edges` is a non-deterministic plan
  * (Random and K-Neighbor draw from `rand(seed)`, whose sample depends on
  * how the plan is partitioned). `copy`, [[withEdges]] and
  * [[GraphOps.symmetrize]] build new instances, which start uncollected.
  *
  * The memoised arrays are shared, not copied: [[GraphOps.collectEdges]]
  * returns them as they are, and `DriverAdj`, `FlowNetwork` and the
  * effective-resistance cache keep references to them. Callers must never
  * mutate them.
  *
  * [[numEdges]] is the length of [[edgeArrays]], so counting a graph
  * collects it and is subject to the driver-collection cap of
  * [[GraphOps.collectEdges]] (2M vertices), failing with the same message.
  *
  * @param name stable identity used for driver-side caches (e.g. effective
  *             resistances, Jaccard scores) — two graphs with the same name
  *             are assumed identical.
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

  /** Undirected version of a directed graph (paper §3.1 step 2: symmetrize
    * then canonicalize). No-op for undirected graphs.
    */
  def symmetrize(g: SparkGraph): SparkGraph =
    if (!g.directed) g
    else g.copy(
      name = s"${g.name}#und",
      edges = canonicalize(g.edges, directed = false),
      directed = false)

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
