package repro.metrics

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, sum}
import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** Graph connectivity measures (§3.3.1): source-destination pair
  * unreachable ratio and vertex isolated ratio. Pair reachability is exact
  * (from connected-component sizes), not sampled — cheaper and noise-free
  * at our scale. Directed graphs are measured on the weak (symmetrized)
  * view, matching the paper's symmetrized sparsifier inputs.
  */
object Connectivity {

  /** Fraction of ordered vertex pairs with no connecting path. Isolated
    * vertices are singleton components, so they count as unreachable.
    */
  def unreachableRatio(g: SparkGraph): Double = {
    val n = g.numVertices.toDouble
    if (n < 2) return 0.0
    val comp = g.undirectedCsr.components()
    val sizes = comp.groupBy(identity).map(_._2.length.toDouble)
    val reachablePairs = sizes.map(s => s * (s - 1)).sum
    1.0 - reachablePairs / (n * (n - 1))
  }

  /** Fraction of vertices with no incident edge. */
  def isolatedRatio(g: SparkGraph): Double =
    GraphOps.isolatedCount(g).toDouble / g.numVertices
}

/** Degree-distribution similarity via Bhattacharyya distance (§3.3.1):
  * "we evenly divide the discrete degree distribution into 100 bins for all
  * graphs" — each graph is binned over its OWN [0, maxDegree] range. That
  * convention is what makes Random nearly shape-invariant in the paper's
  * Fig 2: uniform thinning scales every degree AND the max by (1−ρ), so the
  * normalized histogram barely moves, while biased sparsifiers reshape it.
  * 0 = identical; larger = worse.
  */
object DegreeDistribution {

  val NumBins = 100

  /** Degree histogram (vertices with no edge count as degree 0). */
  def histogram(g: SparkGraph, maxDeg: Int): Array[Double] = {
    val bins = new Array[Double](NumBins)
    // 100 bins over THIS graph's [0, maxDeg] — fractional widths are the
    // point: relative (not absolute) degree position is compared.
    val width = (maxDeg + 1).toDouble / NumBins
    g.totalDegreeArray.foreach { d => bins(math.min(NumBins - 1, (d / width).toInt)) += 1.0 }
    val total = bins.sum
    bins.map(_ / total)
  }

  def bhattacharyya(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    val bc = p.indices.map(i => math.sqrt(p(i) * q(i))).sum
    // bc can exceed 1 by float error for identical distributions; clamp ≥ 0
    math.max(0.0, -math.log(math.max(bc, 1e-300)))
  }

  private def maxDeg(g: SparkGraph): Int = g.totalDegreeArray.foldLeft(0)(math.max)

  /** Distance between the original and sparsified degree distributions,
    * each binned over its own degree range (see class doc).
    */
  def distance(orig: SparkGraph, spar: SparkGraph): Double =
    bhattacharyya(histogram(orig, maxDeg(orig)), histogram(spar, maxDeg(spar)))
}

/** Laplacian quadratic form xᵀLx = Σ_e w_e (x_u − x_v)² (§2.2.1, §3.3.1).
  *
  * The DataFrame form is the Oracle-checkable one (a join + aggregate);
  * the sweep uses the driver form for 100 random vectors at once.
  */
object QuadraticForm {

  /** Catalyst version for a single vector x given as a (v, x) DataFrame. */
  def quadraticFormDF(g: SparkGraph, x: DataFrame): Double =
    g.edges
      .join(x.select(col("v") as "src", col("x") as "xs"), "src")
      .join(x.select(col("v") as "dst", col("x") as "xd"), "dst")
      .agg(sum(col("weight") * (col("xs") - col("xd")) * (col("xs") - col("xd"))) as "qf")
      .collect()(0).getDouble(0)

  private def qfDriver(g: SparkGraph, xs: Array[Array[Double]]): Array[Double] = {
    val (src, dst, wt) = GraphOps.collectEdges(g)
    val out = new Array[Double](xs.length)
    var e = 0
    while (e < src.length) {
      var k = 0
      while (k < xs.length) {
        val d = xs(k)(src(e)) - xs(k)(dst(e))
        out(k) += wt(e) * d * d
        k += 1
      }
      e += 1
    }
    out
  }

  /** Mean ratio x L̃ x / x L x over `nVectors` random vectors (closer to 1
    * is better; ER-weighted is the only sparsifier designed to hold this).
    */
  def meanRatio(orig: SparkGraph, spar: SparkGraph, nVectors: Int = 100, seed: Long = 0): Double = {
    val rng = new Random(seed)
    val n = orig.numVertices.toInt
    val xs = Array.fill(nVectors)(Array.fill(n)(rng.nextGaussian()))
    val qo = qfDriver(orig, xs)
    val qs = qfDriver(spar, xs)
    val ratios = qo.indices.collect { case i if qo(i) > 1e-12 => qs(i) / qo(i) }
    ratios.sum / ratios.length
  }

  /** Random vector as a DataFrame, for tests. */
  def randomVectorDF(spark: SparkSession, n: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val rng = new Random(seed)
    (0 until n).map(v => (v.toLong, rng.nextGaussian())).toDF("v", "x")
  }
}
