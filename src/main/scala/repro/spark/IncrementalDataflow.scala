package repro.spark

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{QueryGraph, StreamEdge}

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
  * job would run, but deterministic and testable offline. Timing-order
  * constraints are evaluated exactly as join predicates, so results equal
  * [[SnapshotMatcher]] on each snapshot (tested).
  */
final class IncrementalDataflow(
    val spark: SparkSession,
    val q: QueryGraph,
    val window: Long,
) {

  private val order = SnapshotMatcher.buildOrder(q)
  private val kk    = order.length

  private def renamed(edges: DataFrame, p: Int): DataFrame =
    edges.select(edges.columns.map(c => col(c).as(s"e${p}_$c")).toIndexedSeq: _*)

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

  /** Predicates from [[SnapshotMatcher]]'s construction between position
    * `p` and the bound prefix (labels on `p` itself included).
    */
  private def predsFor(p: Int): Column = {
    val qeid = order(p)
    val qe   = q.edgeById(qeid)
    val preds = scala.collection.mutable.ArrayBuffer[Column]()
    if (qe.label != "*") preds += col(s"e${p}_label") === lit(qe.label)
    if (q.label(qe.src) != "*") preds += col(s"e${p}_src_label") === lit(q.label(qe.src))
    if (q.label(qe.dst) != "*") preds += col(s"e${p}_dst_label") === lit(q.label(qe.dst))
    preds += col(s"e${p}_src") =!= col(s"e${p}_dst")
    var bound: Map[Int, String] = Map.empty
    (0 until p).foreach { pp =>
      val pqe = q.edgeById(order(pp))
      if (!bound.contains(pqe.src)) bound += pqe.src -> s"e${pp}_src"
      if (!bound.contains(pqe.dst)) bound += pqe.dst -> s"e${pp}_dst"
    }
    Seq(qe.src -> s"e${p}_src", qe.dst -> s"e${p}_dst").foreach { case (qv, c) =>
      bound.foreach { case (bqv, bc) =>
        if (bqv == qv) preds += col(bc) === col(c) else preds += col(bc) =!= col(c)
      }
    }
    (0 until p).foreach { pp =>
      preds += col(s"e${pp}_id") =!= col(s"e${p}_id")
      if (q.precedes(order(pp), qeid)) preds += col(s"e${pp}_ts") < col(s"e${p}_ts")
      if (q.precedes(qeid, order(pp))) preds += col(s"e${p}_ts") < col(s"e${pp}_ts")
    }
    preds.reduce(_ && _)
  }

  private def labelFilter(p: Int): Column = {
    val qe    = q.edgeById(order(p))
    val preds = scala.collection.mutable.ArrayBuffer[Column](col(s"e${p}_src") =!= col(s"e${p}_dst"))
    if (qe.label != "*") preds += col(s"e${p}_label") === lit(qe.label)
    if (q.label(qe.src) != "*") preds += col(s"e${p}_src_label") === lit(q.label(qe.src))
    if (q.label(qe.dst) != "*") preds += col(s"e${p}_dst_label") === lit(q.label(qe.dst))
    preds.reduce(_ && _)
  }

  private def notExpired(j: Int, watermark: Long): Column =
    (0 to j).map(p => col(s"e${p}_ts") > lit(watermark)).reduce(_ && _)

  /** Advance the state by one micro-batch ending at time `now`; all batch
    * edges must have `ts ≤ now`. Returns the new complete matches
    * (columns `m_<qeid>` as in [[SnapshotMatcher.matches]]).
    */
  def advanceBatch(batch: Seq[StreamEdge], now: Long): DataFrame = {
    val wm      = now - window
    val batchDf = EdgeStreams.toDf(spark, batch)

    val liveOld = windowEdges.where(col("ts") > lit(wm)).localCheckpoint(true)
    val newLeaves = (0 until kk).map { p =>
      renamed(batchDf, p).where(labelFilter(p) && col(s"e${p}_ts") > lit(wm))
    }
    val oldLeaves = (0 until kk).map(p => renamed(liveOld, p).where(labelFilter(p)))
    val oldOmega  = (0 until kk).map(j => omega(j).where(notExpired(j, wm)))

    val newOmega  = Array.ofDim[DataFrame](kk)
    val deltas    = Array.ofDim[DataFrame](kk)
    deltas(0) = newLeaves(0)
    newOmega(0) = oldLeaves(0).unionByName(newLeaves(0))
    (1 until kk).foreach { j =>
      val pred = predsFor(j)
      val d1   = oldOmega(j - 1).join(newLeaves(j), pred)
      val d2   = deltas(j - 1).join(oldLeaves(j), pred)
      val d3   = deltas(j - 1).join(newLeaves(j), pred)
      deltas(j) = d1.unionByName(d2).unionByName(d3)
      newOmega(j) = oldOmega(j).unionByName(deltas(j))
    }

    windowEdges = liveOld.unionByName(batchDf.where(col("ts") > lit(wm))).localCheckpoint(true)
    omega = (0 until kk).map(j => newOmega(j).localCheckpoint(true))
    toMatches(deltas(kk - 1))
  }

  private def toMatches(df: DataFrame): DataFrame = {
    val outCols = q.edges.map(_.id).sorted.map { qeid =>
      val p = order.indexOf(qeid)
      col(s"e${p}_id").as(s"m_$qeid")
    }
    df.select(outCols.toIndexedSeq: _*)
  }

  /** Current complete matches Ω(Q) held in the state (after expiry as of
    * the last batch's `now`).
    */
  def currentMatches: DataFrame = toMatches(omega(kk - 1))
}
