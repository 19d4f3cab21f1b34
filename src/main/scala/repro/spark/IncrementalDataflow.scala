package repro.spark

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{QueryGraph, StreamEdge}
import repro.spark.SnapshotMatcher.{column, project, renamed}

/** Incremental continuous matching as a Spark dataflow with windowed state
  * — the distributed analogue of the expansion lists, per the reproduction
  * mandate ("Structured Streaming job maintaining incremental subgraph
  * matches with windowed state over streaming graph edges").
  *
  * State per prefix `j` of a prefix-connected build order: the DataFrame
  * `Ω_j` of partial matches of the first `j+1` query edges (all bound-edge
  * columns kept), plus the per-edge leaf DataFrames. A micro-batch of new
  * edges advances the state with delta joins
  *
  * `Δ_j = Ω_{j-1}·Δleaf_j ∪ Δ_{j-1}·leaf_j ∪ Δ_{j-1}·Δleaf_j`
  *
  * and expiry is a timestamp filter on every bound edge — semantically the
  * same windowed-state maintenance a Structured Streaming `foreachBatch`
  * job would run, but deterministic and testable offline. Leaves and
  * joins render the same [[MatchPlan]] as [[SnapshotMatcher]], so results
  * equal it on each snapshot (tested, with a brute-force check as well).
  */
final class IncrementalDataflow(
    val spark: SparkSession,
    val q: QueryGraph,
    val window: Long,
) {

  private val plan = new MatchPlan(q)
  private val kk   = plan.order.length

  private def emptyRenamed(p: Int): DataFrame =
    renamed(spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row], EdgeStreams.schema), p)

  private def emptyPrefix(j: Int): DataFrame = {
    var df = emptyRenamed(0)
    (1 to j).foreach(p => df = df.crossJoin(emptyRenamed(p)))
    df
  }

  // Mutable state: one window-edge DataFrame (leaves derive from it by
  // filter — cheaper than checkpointing k leaf DataFrames per batch) and
  // omega(j) = partial matches of prefix 0..j.
  private var windowEdges: DataFrame        = spark.createDataFrame(
    spark.sparkContext.emptyRDD[org.apache.spark.sql.Row], EdgeStreams.schema)
  private var omega: IndexedSeq[DataFrame]  = (0 until kk).map(emptyPrefix)
  private var lastNow                       = Long.MinValue

  private def notExpired(j: Int, watermark: Long): Column =
    (0 to j).map(p => col(s"e${p}_ts") > lit(watermark)).reduce(_ && _)

  /** Advance the state by one micro-batch ending at time `now`. Definition 1
    * holds across batches: `now` is not below the previous batch's `now`,
    * and every batch edge has `ts` in `(previous now, now]`. Returns the new
    * complete matches (columns `m_<qeid>` as in [[SnapshotMatcher.matches]]).
    */
  def advanceBatch(batch: Seq[StreamEdge], now: Long): DataFrame = {
    require(now >= lastNow, s"batch time $now is below the previous batch time $lastNow (Definition 1)")
    batch.foreach { e =>
      require(e.ts > lastNow && e.ts <= now,
        s"edge ${e.id} has ts=${e.ts} outside ($lastNow, $now] (Definition 1)")
    }
    lastNow = now
    val wm      = now - window
    val batchDf = EdgeStreams.toDf(spark, batch)

    val liveOld = windowEdges.where(col("ts") > lit(wm)).localCheckpoint(true)
    val newLeaves = (0 until kk).map { p =>
      renamed(batchDf, p).where(column(plan.local(p)) && col(s"e${p}_ts") > lit(wm))
    }
    val oldLeaves = (0 until kk).map(p => renamed(liveOld, p).where(column(plan.local(p))))
    val oldOmega  = (0 until kk).map(j => omega(j).where(notExpired(j, wm)))

    val newOmega  = Array.ofDim[DataFrame](kk)
    val deltas    = Array.ofDim[DataFrame](kk)
    deltas(0) = newLeaves(0)
    newOmega(0) = oldLeaves(0).unionByName(newLeaves(0))
    (1 until kk).foreach { j =>
      val pred = column(plan.cross(j))
      val d1   = oldOmega(j - 1).join(newLeaves(j), pred)
      val d2   = deltas(j - 1).join(oldLeaves(j), pred)
      val d3   = deltas(j - 1).join(newLeaves(j), pred)
      deltas(j) = d1.unionByName(d2).unionByName(d3)
      newOmega(j) = oldOmega(j).unionByName(deltas(j))
    }

    windowEdges = liveOld.unionByName(batchDf.where(col("ts") > lit(wm))).localCheckpoint(true)
    omega = (0 until kk).map(j => newOmega(j).localCheckpoint(true))
    project(deltas(kk - 1), plan)
  }

  /** Current complete matches Ω(Q) held in the state (after expiry as of
    * the last batch's `now`).
    */
  def currentMatches: DataFrame = project(omega(kk - 1), plan)
}
