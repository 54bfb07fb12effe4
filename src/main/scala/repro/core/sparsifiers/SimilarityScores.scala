package repro.core.sparsifiers

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, SparkGraph}

/** Per-edge similarity scores shared by G-Spar, L-Spar, Local Similarity and
  * SCAN — computed with Catalyst joins once per graph instance, which holds
  * them as [[SparkGraph.similarityScores]] (the scores do not depend on the
  * prune rate, so re-use across the ρ sweep matters).
  *
  * For an edge (u,v):
  *   - `common`  = |N(u) ∩ N(v)| (out-neighbourhoods for directed graphs),
  *   - `jaccard` = common / (deg(u)+deg(v)−common)              (§2.3.8),
  *   - `scan`    = (common+1) / sqrt((deg(u)+1)(deg(v)+1))      (§2.3.8).
  */
object SimilarityScores {

  /** Edge DataFrame with columns (src, dst, weight, degSrc, degDst, common,
    * jaccard, scan). One row per canonical edge of `g`. Persisted and
    * counted; read it through [[SparkGraph.similarityScores]].
    */
  private[core] def compute(g: SparkGraph): DataFrame = {
    val arcs = GraphOps.arcs(g)
    val deg  = GraphOps.degrees(g)

    // Common out-neighbours per edge: wedge join A(u,w) ⋈ A(v,w).
    val a1 = arcs.select(col("u") as "src", col("v") as "w1")
    val a2 = arcs.select(col("u") as "dst", col("v") as "w2")
    val common = g.edges.select("src", "dst")
      .join(a1, "src")
      .join(a2.withColumnRenamed("w2", "w1"), Seq("dst", "w1"))
      .groupBy("src", "dst").agg(count(lit(1)) as "common")

    val scored = g.edges
      .join(common, Seq("src", "dst"), "left")
      .na.fill(0L, Seq("common"))
      .join(deg.select(col("v") as "src", col("deg") as "degSrc"), Seq("src"), "left")
      .join(deg.select(col("v") as "dst", col("deg") as "degDst"), Seq("dst"), "left")
      .na.fill(0L, Seq("degSrc", "degDst"))
      .withColumn("jaccard",
        when(col("degSrc") + col("degDst") - col("common") > 0,
          col("common") / (col("degSrc") + col("degDst") - col("common")))
          .otherwise(lit(0.0)))
      .withColumn("scan",
        (col("common") + 1) / sqrt((col("degSrc") + 1) * (col("degDst") + 1)))
      .select("src", "dst", "weight", "degSrc", "degDst", "common", "jaccard", "scan")
      .persist()
    scored.count() // materialize so the persisted frame holds the work
    scored
  }
}
