package repro.baselines

import scala.collection.mutable
import repro.core.{Matching, QueryGraph, StreamEdge, TimingSequence}

/** A static (snapshot) subgraph-isomorphism matcher. Structure-only: the
  * caller applies timing-order filtering posteriorly, as the paper does for
  * the IncMat/SJ-tree comparison methods (§VII-C).
  */
trait StaticMatcher {
  def name: String

  /** All structural matches of `q` in `edges`. With `anchor = Some(σ)`,
    * only matches containing σ are produced (the incremental-search use).
    */
  def findAll(
      q: QueryGraph,
      edges: IndexedSeq[StreamEdge],
      anchor: Option[StreamEdge] = None,
  ): Vector[Matching.Match]
}

/** Shared backtracking core. Variants differ in the query-edge search
  * order and in their candidate-pruning predicate — the knobs that
  * distinguish QuickSI, TurboISO and BoostISO in spirit.
  */
abstract class BacktrackingMatcher extends StaticMatcher {

  /** Optional step budget per `findAll` (candidate tests). Benches cap the
    * recompute baselines so one pathological edge cannot stall a run; a
    * capped search may miss matches, and the caller must surface the count
    * (no silent truncation — see DESIGN.md). 0 = unlimited.
    */
  var stepBudget: Long = 0L

  /** Number of findAll invocations that hit the step budget. */
  var cappedSearches: Long = 0L

  /** A prefix-connected search order over query-edge ids, possibly seeded
    * with a first edge (the anchored one). `freq` gives each query edge's
    * candidate count in the current snapshot. By default the infrequent
    * query edges come first (QuickSI's QI-sequence flavour).
    */
  protected def searchOrder(q: QueryGraph, first: Option[Int], freq: Map[Int, Int]): IndexedSeq[Int] =
    TimingSequence.connectivityOrder(q, first, freq)

  /** Extra pruning on a candidate data edge for a query edge (beyond label
    * and consistency checks). `ctx` is the per-call snapshot context.
    */
  protected def prune(ctx: SnapshotCtx, qeid: Int, e: StreamEdge): Boolean = false

  /** Per-snapshot derived data shared by the pruning strategies. */
  final class SnapshotCtx(val q: QueryGraph, val edges: IndexedSeq[StreamEdge]) {
    /** undirected degree of each data vertex */
    val degree: Map[Long, Int] = {
      val m = mutable.Map[Long, Int]().withDefaultValue(0)
      edges.foreach { e => m(e.src) += 1; m(e.dst) += 1 }
      m.toMap.withDefaultValue(0)
    }
    /** undirected query-vertex degree */
    val qDegree: Map[Int, Int] = {
      val m = mutable.Map[Int, Int]().withDefaultValue(0)
      q.edges.foreach { e => m(e.src) += 1; m(e.dst) += 1 }
      m.toMap.withDefaultValue(0)
    }
    /** data edges indexed by endpoint vertex */
    val byVertex: Map[Long, IndexedSeq[StreamEdge]] =
      (edges.flatMap(e => Seq(e.src -> e, e.dst -> e)))
        .groupBy(_._1).map { case (v, xs) => v -> xs.map(_._2) }
        .withDefaultValue(Vector.empty)
  }

  override def findAll(
      q: QueryGraph,
      edges: IndexedSeq[StreamEdge],
      anchor: Option[StreamEdge],
  ): Vector[Matching.Match] = {
    val ctx  = new SnapshotCtx(q, edges)
    val freq = q.edges.map(qe => qe.id -> edges.count(q.matchesEdge(qe, _))).toMap
    val out  = mutable.LinkedHashMap[String, Matching.Match]()
    var steps = 0L
    var capped = false

    def search(order: IndexedSeq[Int], depth: Int,
               boundIds: mutable.ArrayBuffer[Int], boundEs: mutable.ArrayBuffer[StreamEdge]): Unit = {
      if (capped) return
      if (depth == order.length) {
        val m = boundIds.zip(boundEs).toMap
        out.getOrElseUpdate(Matching.key(m), m)
        return
      }
      val qeid = order(depth)
      val qe   = q.edgeById(qeid)
      // Candidates: restrict via an already-bound shared vertex when possible.
      val boundVertex: Option[Long] = {
        var found: Option[Long] = None
        var i = 0
        while (i < boundIds.length && found.isEmpty) {
          val pqe = q.edgeById(boundIds(i)); val pe = boundEs(i)
          if (pqe.src == qe.src || pqe.src == qe.dst) found = Some(pe.src)
          else if (pqe.dst == qe.src || pqe.dst == qe.dst) found = Some(pe.dst)
          i += 1
        }
        found
      }
      val cands = boundVertex.map(ctx.byVertex).getOrElse(edges)
      cands.foreach { e =>
        steps += 1
        if (stepBudget > 0 && steps > stepBudget) { capped = true; return }
        if (q.matchesEdge(qe, e) && !prune(ctx, qeid, e) &&
            Matching.canExtend(q, boundIds.toIndexedSeq, boundEs.toIndexedSeq, qeid, e, checkTiming = false)) {
          boundIds += qeid; boundEs += e
          search(order, depth + 1, boundIds, boundEs)
          boundIds.remove(boundIds.length - 1); boundEs.remove(boundEs.length - 1)
        }
      }
    }

    anchor match {
      case None =>
        val order = searchOrder(q, None, freq)
        search(order, 0, mutable.ArrayBuffer(), mutable.ArrayBuffer())
      case Some(sigma) =>
        // Try σ at every query edge it can match; dedup via match keys.
        for (qe <- q.matchingQueryEdges(sigma)) {
          if (Matching.canExtend(q, Vector.empty, Vector.empty, qe.id, sigma, checkTiming = false)) {
            val order = searchOrder(q, Some(qe.id), freq)
            search(order, 1, mutable.ArrayBuffer(qe.id), mutable.ArrayBuffer(sigma))
          }
        }
    }
    if (capped) cappedSearches += 1
    out.values.toVector
  }
}

/** QuickSI-style matcher [Shang et al. 2008]: search order chooses the
  * infrequent query edges first (QI-sequence flavour), no extra pruning.
  */
final class QuickSI extends BacktrackingMatcher {
  override def name = "QuickSI"
}

/** TurboISO-style matcher [Han et al. 2013]: starts from the edge with the
  * fewest candidates, explores in BFS (candidate-region) order, and prunes
  * candidates whose endpoint degrees cannot cover the query degrees.
  */
final class TurboIso extends BacktrackingMatcher {
  override def name = "TurboISO"

  override protected def searchOrder(q: QueryGraph, first: Option[Int], freq: Map[Int, Int]) = {
    // BFS over query edges from the start edge (region exploration order).
    val start     = first.getOrElse(q.edges.map(_.id).minBy(e => (freq(e), e)))
    val remaining = mutable.Set[Int](q.edges.map(_.id): _*) -= start
    val out       = mutable.ArrayBuffer(start)
    var frontier  = 0
    while (remaining.nonEmpty) {
      val cur  = out(frontier)
      val next = remaining.filter(q.adjacentEdges(cur, _)).toSeq.sortBy(e => (freq(e), e))
      next.foreach { e => out += e; remaining -= e }
      frontier += 1
      if (frontier >= out.length && remaining.nonEmpty) { // disconnected guard
        val any = remaining.head; out += any; remaining -= any
      }
    }
    out.toIndexedSeq
  }

  override protected def prune(ctx: SnapshotCtx, qeid: Int, e: StreamEdge): Boolean = {
    val qe = ctx.q.edgeById(qeid)
    ctx.degree(e.src) < ctx.qDegree(qe.src) || ctx.degree(e.dst) < ctx.qDegree(qe.dst)
  }
}

/** BoostISO-style matcher [Ren & Wang 2015]: QuickSI's order plus a
  * neighbourhood label-profile filter (a light-weight stand-in for their
  * vertex-relationship pruning).
  */
final class BoostIso extends BacktrackingMatcher {
  override def name = "BoostISO"

  override protected def prune(ctx: SnapshotCtx, qeid: Int, e: StreamEdge): Boolean = {
    val qe = ctx.q.edgeById(qeid)
    // Degree cover plus: every neighbour label required around the query
    // endpoints must occur around the candidate endpoints.
    def labelsAround(v: Long): Set[String] =
      ctx.byVertex(v).iterator.map(x => if (x.src == v) x.dstLabel else x.srcLabel).toSet
    def qLabelsAround(qv: Int): Set[String] =
      ctx.q.edges.iterator.collect {
        case x if x.src == qv && ctx.q.label(x.dst) != "*" => ctx.q.label(x.dst)
        case x if x.dst == qv && ctx.q.label(x.src) != "*" => ctx.q.label(x.src)
      }.toSet
    ctx.degree(e.src) < ctx.qDegree(qe.src) || ctx.degree(e.dst) < ctx.qDegree(qe.dst) ||
    !qLabelsAround(qe.src).subsetOf(labelsAround(e.src)) ||
    !qLabelsAround(qe.dst).subsetOf(labelsAround(e.dst))
  }
}
