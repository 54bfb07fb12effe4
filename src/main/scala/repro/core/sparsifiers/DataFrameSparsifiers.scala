package repro.core.sparsifiers

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Helpers shared by the Catalyst (DataFrame) sparsifiers. */
private[sparsifiers] object DfUtil {

  /** Keep the K rows with the smallest `score`, ties broken canonically by
    * (src, dst) so deterministic sparsifiers really are deterministic.
    */
  def keepSmallest(scored: DataFrame, k: Int): DataFrame =
    scored.orderBy(col("__score").asc, col("src").asc, col("dst").asc)
      .limit(k)
      .select("src", "dst", "weight")

  /** Per-arc rank within each source vertex `u` by `orderCol` descending
    * (ties by neighbour id), and the per-edge MIN over its arcs of
    * log(rank)/log(deg(u)) — the Local-Degree/L-Spar/Local-Similarity
    * "keep while rank ≤ deg^α" exponent. rank 1 maps to exponent 0, so each
    * vertex's best edge is always kept first (the ≥1-edge guarantee).
    *
    * `arcsScored` must have columns (u, v, orderVal); returns per-canonical
    * edge (src, dst, minExp).
    */
  def rankExponent(g: SparkGraph, arcsScored: DataFrame): DataFrame = {
    val deg = GraphOps.degrees(g)
    val w   = Window.partitionBy("u").orderBy(col("orderVal").desc, col("v").asc)
    val ranked = arcsScored
      .withColumn("rnk", row_number().over(w))
      .join(deg.select(col("v") as "u", col("deg") as "degU"), Seq("u"))
      .withColumn("exp",
        when(col("rnk") === 1, lit(0.0))
          .otherwise(log(col("rnk").cast("double")) / log(col("degU").cast("double"))))
    val canon =
      if (g.directed) ranked.select(col("u") as "src", col("v") as "dst", col("exp"))
      else ranked.select(
        least(col("u"), col("v")) as "src",
        greatest(col("u"), col("v")) as "dst",
        col("exp"))
    canon.groupBy("src", "dst").agg(min("exp") as "minExp")
  }

  /** Given per-edge integer levels, find the smallest level L such that
    * #edges(level ≤ L) ≥ target — the coarse-grained prune-rate alignment
    * used by K-Neighbor and L-Spar (§3.2 item 1).
    */
  def levelForTarget(levels: DataFrame, levelCol: String, target: Long): Long = {
    val counts = levels.groupBy(levelCol).count()
      .collect()
      .map(r => (r.getAs[Number](0).longValue(), r.getLong(1)))
      .sortBy(_._1)
    var cum = 0L
    for ((lvl, c) <- counts) {
      cum += c
      if (cum >= target) return lvl
    }
    counts.lastOption.map(_._1).getOrElse(1L)
  }
}

/** Uniform random edge sampling (§2.3.1) — the naive baseline. */
final class RandomSparsifier extends Sparsifier {
  val name = "Random"; val abbrev = "RN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k = keepCount(g.numEdges, rho)
    val kept = g.edges.withColumn("__score", rand(seed))
    g.withEdges(DfUtil.keepSmallest(kept, k), s"RN-$rho-$seed")
  }
}

/** Local Degree (§2.3.4): for each vertex keep edges to the top deg(v)^α
  * neighbours ranked by neighbour degree. Implemented NetworKit-style as a
  * per-edge score min_u log(rank_u)/log(deg(u)) and a global sort, which
  * gives fine-grained prune-rate control while preserving the per-vertex
  * ≥1-edge guarantee (rank-1 arcs score 0).
  */
final class LocalDegree extends Sparsifier {
  val name = "Local Degree"; val abbrev = "LD"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k   = keepCount(g.numEdges, rho)
    val deg = GraphOps.degrees(g)
    val arcs = GraphOps.arcs(g)
      .join(deg.select(col("v"), col("deg") as "orderVal"), Seq("v"))
      .select("u", "v", "orderVal")
    val scored = DfUtil.rankExponent(g, arcs)
      .join(g.edges, Seq("src", "dst"))
      .withColumn("__score", col("minExp"))
    g.withEdges(DfUtil.keepSmallest(scored, k), s"LD-$rho")
  }
}

/** Local Similarity (§2.3.8): like Local Degree but neighbours are ranked by
  * Jaccard similarity; score log(rank)/log(deg), globally sorted.
  */
final class LocalSimilarity extends Sparsifier {
  val name = "Local Similarity"; val abbrev = "LSim"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k = keepCount(g.numEdges, rho)
    val sim = g.similarityScores.select(col("src"), col("dst"), col("jaccard"))
    // Jaccard is symmetric: build both arcs with the same orderVal.
    val fwd = sim.select(col("src") as "u", col("dst") as "v", col("jaccard") as "orderVal")
    val arcs = if (g.directed) fwd else fwd.union(
      sim.select(col("dst") as "u", col("src") as "v", col("jaccard") as "orderVal"))
    val scored = DfUtil.rankExponent(g, arcs)
      .join(g.edges, Seq("src", "dst"))
      .withColumn("__score", col("minExp"))
    g.withEdges(DfUtil.keepSmallest(scored, k), s"LSim-$rho")
  }
}

/** L-Spar (§2.3.8, Satuluri et al.): per-vertex keep the top ⌈deg^c⌉ edges by
  * Jaccard similarity. c is aligned to the target prune rate on a coarse
  * grid (the union over vertices makes exact control impossible).
  */
final class LSpar extends Sparsifier {
  val name = "L-Spar"; val abbrev = "LS"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val target = keepCount(g.numEdges, rho).toLong
    val sim = g.similarityScores.select(col("src"), col("dst"), col("jaccard"))
    val fwd = sim.select(col("src") as "u", col("dst") as "v", col("jaccard") as "orderVal")
    val arcs = if (g.directed) fwd else fwd.union(
      sim.select(col("dst") as "u", col("src") as "v", col("jaccard") as "orderVal"))
    val exps = DfUtil.rankExponent(g, arcs)
      // grid of c values with step 0.02: edge kept iff minExp ≤ c
      .withColumn("lvl", ceil(col("minExp") / 0.02).cast("long"))
    val lvl  = DfUtil.levelForTarget(exps, "lvl", target)
    val kept = exps.filter(col("lvl") <= lvl).join(g.edges, Seq("src", "dst"))
      .select("src", "dst", "weight")
    g.withEdges(kept, s"LS-$rho")
  }
}

/** G-Spar (§2.3.8): global sort by Jaccard similarity, keep the top K. */
final class GSpar extends Sparsifier {
  val name = "G-Spar"; val abbrev = "GS"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k = keepCount(g.numEdges, rho)
    val scored = g.similarityScores.withColumn("__score", -col("jaccard"))
    g.withEdges(DfUtil.keepSmallest(scored, k), s"GS-$rho")
  }
}

/** SCAN structural-similarity sparsifier (§2.3.8): global sort by the SCAN
  * score (common+1)/sqrt((deg+1)(deg+1)), keep the top K.
  */
final class Scan extends Sparsifier {
  val name = "SCAN"; val abbrev = "SCAN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Fine
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val k = keepCount(g.numEdges, rho)
    val scored = g.similarityScores.withColumn("__score", -col("scan"))
    g.withEdges(DfUtil.keepSmallest(scored, k), s"SCAN-$rho")
  }
}

/** K-Neighbor (§2.3.2): every vertex samples up to k incident edges with
  * probability proportional to edge weight (A-Res weighted reservoir keys);
  * the kept set is the union over vertices. k is aligned to the target
  * prune rate (coarse control), and every non-isolated vertex keeps ≥1 edge.
  */
final class KNeighbor extends Sparsifier {
  val name = "K-Neighbor"; val abbrev = "KN"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val target = keepCount(g.numEdges, rho).toLong
    // A-Res key: u^(1/w) — larger keys win; reduces to uniform for w≡1.
    val w = Window.partitionBy("u").orderBy(col("key").desc, col("v").asc)
    val ranked = GraphOps.arcs(g)
      .withColumn("key", pow(rand(seed), lit(1.0) / col("weight")))
      .withColumn("rnk", row_number().over(w))
    val canon =
      if (g.directed) ranked.select(col("u") as "src", col("v") as "dst", col("rnk"))
      else ranked.select(
        least(col("u"), col("v")) as "src",
        greatest(col("u"), col("v")) as "dst",
        col("rnk"))
    val lvls = canon.groupBy("src", "dst").agg(min("rnk") as "lvl")
    val k    = DfUtil.levelForTarget(lvls, "lvl", target)
    val kept = lvls.filter(col("lvl") <= k).join(g.edges, Seq("src", "dst"))
      .select("src", "dst", "weight")
    g.withEdges(kept, s"KN-$rho-$seed")
  }
}
