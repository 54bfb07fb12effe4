package repro.metrics

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, SparkGraph}

/** Clustering coefficients (§2.2.4) as Catalyst triangle/wedge counting on
  * the undirected simple graph (directed inputs are symmetrized — weights
  * are unused, per Table 1's "weight not used" footnote).
  *
  *   LCC(v) = 2·T(v) / (deg(v)(deg(v)−1)),  MCC = mean over all vertices,
  *   GCC    = 3·#triangles / #wedges.
  */
object ClusteringCoeffs {

  /** (v, triangles) for every vertex in ≥1 triangle. Triangles are counted
    * once via the oriented wedge join a<b<c.
    */
  def trianglesPerVertex(g: SparkGraph): DataFrame = {
    val und = g.undirected
    val e = und.edges.select(col("src"), col("dst")) // src < dst canonical
    val tri = e.as("ab")
      .join(e.as("bc"), col("ab.dst") === col("bc.src"))
      .join(e.as("ac"),
        col("ac.src") === col("ab.src") && col("ac.dst") === col("bc.dst"))
      .select(col("ab.src") as "a", col("ab.dst") as "b", col("bc.dst") as "c")
    tri.select(col("a") as "v")
      .union(tri.select(col("b") as "v"))
      .union(tri.select(col("c") as "v"))
      .groupBy("v").agg(count(lit(1)) as "triangles")
  }

  /** Total triangle count. */
  def triangleCount(g: SparkGraph): Long = {
    val und = g.undirected
    val e = und.edges.select(col("src"), col("dst"))
    e.as("ab")
      .join(e.as("bc"), col("ab.dst") === col("bc.src"))
      .join(e.as("ac"),
        col("ac.src") === col("ab.src") && col("ac.dst") === col("bc.dst"))
      .count()
  }

  /** Mean local clustering coefficient over ALL vertices (deg<2 ⇒ 0), so the
    * value is comparable across prune rates with a fixed vertex set.
    */
  def mcc(g: SparkGraph): Double = {
    val und = g.undirected
    val deg = GraphOps.degrees(und)
    val lccSum = deg
      .join(trianglesPerVertex(g), Seq("v"), "left")
      .na.fill(0L, Seq("triangles"))
      .filter(col("deg") >= 2)
      .select(sum(lit(2.0) * col("triangles") / (col("deg") * (col("deg") - 1))) as "s")
      .collect()(0).getDouble(0)
    lccSum / g.numVertices
  }

  /** Global clustering coefficient = 3·triangles / wedges. */
  def gcc(g: SparkGraph): Double = {
    val und = g.undirected
    val wedges = GraphOps.degrees(und)
      .select(sum(col("deg") * (col("deg") - 1) / 2) as "w")
      .collect()(0).getDouble(0)
    if (wedges <= 0) 0.0 else 3.0 * triangleCount(g) / wedges
  }
}
