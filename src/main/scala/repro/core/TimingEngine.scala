package repro.core

import java.util.concurrent.atomic.LongAdder
import scala.collection.mutable

import repro.core.store._

/** Which storage backend an engine uses for its expansion lists. */
sealed trait StoreMode
object StoreMode {
  /** Match-store trees (§IV) — the paper's "Timing" configuration. */
  case object MsTree extends StoreMode
  /** Independent match storage — the paper's "Timing-IND" ablation. */
  case object Independent extends StoreMode
}

/** Continuous-query engines share this surface so the window driver and
  * the benches can swap methods.
  */
trait EngineApi {
  /** Process an incoming edge; returns the *new* complete matches. */
  def insert(sigma: StreamEdge): Vector[Matching.Match]
  /** Process an expired edge. */
  def delete(sigma: StreamEdge): Unit
  /** Current answers Ω(Q). */
  def results: Vector[Matching.Match]
  /** Space in cells (DESIGN.md §5). */
  def spaceCells: Long
}

/** The paper's incremental engine (Algorithms 1–2): one expansion list per
  * TC-subquery plus `L_0` over the decomposition, with either MS-tree or
  * independent storage. All item accesses go through a [[Guard]], in the
  * exact order of [[insertPlan]]/[[deletePlan]], which is what the
  * concurrency layer (§V) locks against.
  */
final class TimingEngine(
    val q: QueryGraph,
    val decomposition: Decomposition,
    val mode: StoreMode,
) extends EngineApi {

  Decomposer.validate(q, decomposition)

  private val k = decomposition.k

  /** The expansion lists, numbered as [[ItemKey.list]]: `lists(0)` is
    * `L_0` (no levels when k = 1) and `lists(i + 1)` is subquery `i`'s list.
    */
  private val lists: IndexedSeq[MatchStore] = {
    val l0Levels = if (k == 1) 0 else k
    mode match {
      case StoreMode.MsTree =>
        new MsJoinStore(l0Levels) +: decomposition.subqueries.map(sq => new MsChainStore(sq.size))
      case StoreMode.Independent =>
        (l0Levels +: decomposition.subqueries.map(_.size)).map(new IndStore(_))
    }
  }

  private[repro] def chains(i: Int): MatchStore = lists(i + 1)

  /** Join operations performed (for validating Theorem 7's cost model). */
  val joinOps = new LongAdder

  /** Optional per-insert work cap (pair tests) for *benchmark* use only: a
    * dense workload can make one cascade do 10⁸ pair tests. Once an insert
    * is over the cap, each further join step aborts its group like an
    * empty join (plan-consistently); capped inserts are counted in
    * [[cappedInserts]] — never silently. 0 = unlimited (the default, used
    * by all correctness tests).
    */
  var workCap: Long = 0L

  /** Number of inserts that hit [[workCap]]. */
  val cappedInserts = new LongAdder

  /** (subquery, position) pairs whose query edge σ can match, in the fixed
    * iteration order shared by plan and execution.
    */
  private def positionsMatching(sigma: StreamEdge): IndexedSeq[(Int, Int)] =
    for {
      i <- 0 until k
      j <- 0 until lists(i + 1).numLevels
      // query graphs have no self-loops, so self-loop data edges never match
      if sigma.src != sigma.dst
      if q.matchesEdge(q.edgeById(decomposition.subqueries(i).seq(j)), sigma)
    } yield (i, j)

  /** Lock-plan steps for handling σ matching position (i, j) — worst case:
    * every join is assumed non-empty (§V-A's analysis style).
    */
  private def groupSteps(i: Int, j: Int): Vector[(ItemKey, LockMode)] = {
    val b = Vector.newBuilder[(ItemKey, LockMode)]
    if (j == 0) b += ItemKey(i + 1, 0) -> LockMode.X
    else { b += ItemKey(i + 1, j - 1) -> LockMode.S; b += ItemKey(i + 1, j) -> LockMode.X }
    if (j == lists(i + 1).numLevels - 1 && k > 1) {
      if (i == 0) b += ItemKey(0, 0) -> LockMode.X
      else { b += ItemKey(0, i - 1) -> LockMode.S; b += ItemKey(0, i) -> LockMode.X }
      for (x <- i + 1 until k) {
        b += ItemKey(x + 1, lists(x + 1).numLevels - 1) -> LockMode.S
        b += ItemKey(0, x)                              -> LockMode.X
      }
    }
    b.result()
  }

  /** Full lock plan of Ins(σ); empty iff σ matches no query edge. */
  def insertPlan(sigma: StreamEdge): Vector[(ItemKey, LockMode)] =
    positionsMatching(sigma).flatMap { case (i, j) => groupSteps(i, j) }.toVector

  /** Does σ match a position of subquery `i`'s sequence, i.e. can Del(σ)
    * remove matches of that list (Algorithm 2)?
    */
  private def triggers(i: Int, sigma: StreamEdge): Boolean =
    decomposition.subqueries(i).seq.exists(e => q.matchesEdge(q.edgeById(e), sigma))

  /** Full lock plan of Del(σ); empty iff σ matches no query edge. */
  def deletePlan(sigma: StreamEdge): Vector[(ItemKey, LockMode)] = {
    val b = Vector.newBuilder[(ItemKey, LockMode)]
    for (i <- 0 until k if triggers(i, sigma)) {
      (0 until lists(i + 1).numLevels).foreach(j => b += ItemKey(i + 1, j) -> LockMode.X)
      (i until lists(0).numLevels).foreach(x => b += ItemKey(0, x) -> LockMode.X)
    }
    b.result()
  }

  override def insert(sigma: StreamEdge): Vector[Matching.Match] =
    insert(sigma, Guard.NoOp)

  /** Algorithm 1. Every item update is the time-constrained join ⋈ᵀ
    * (Theorem 2): a chain item is `L^{j-1} ⋈ᵀ {σ}`, an `L_0` item is the
    * joined prefix ⋈ᵀ the new subquery matches.
    */
  def insert(sigma: StreamEdge, guard: Guard): Vector[Matching.Match] = {
    val out    = Vector.newBuilder[Matching.Match]
    val l0     = lists(0)
    var work   = 0L
    var capped = false
    for ((i, j) <- positionsMatching(sigma)) {
      val steps    = groupSteps(i, j)
      var consumed = 0
      def run[A](f: => A): A = {
        val (key, m) = steps(consumed)
        consumed += 1
        guard.exec(key, m)(f)
      }

      /** `left ⋈ᵀ right`: test every pair, then extend `store` at `level` by
        * each compatible pair under the group's next step. No pair (or the
        * work cap) makes σ discardable for the rest of the group (Lemma 1).
        */
      def joinStep(left: Vector[StoredMatch], leftIds: IndexedSeq[Int],
                   right: Vector[StoredMatch], rightIds: IndexedSeq[Int],
                   store: MatchStore, level: Int): Vector[StoredMatch] = {
        joinOps.increment()
        work += left.size.toLong * right.size
        val hits = mutable.ArrayBuffer[StoredMatch]() // compatible pairs, flattened
        if (workCap > 0 && work > workCap) {
          if (!capped) { capped = true; cappedInserts.increment() }
        } else {
          var a = 0
          while (a < left.length) {
            val l = left(a)
            var b = 0
            while (b < right.length) {
              val r = right(b)
              if (Matching.crossCompatible(q, leftIds, l.edges, rightIds, r.edges)) { hits += l; hits += r }
              b += 1
            }
            a += 1
          }
        }
        if (hits.isEmpty) { guard.skip(steps.length - consumed); Vector.empty }
        else run {
          val written = Vector.newBuilder[StoredMatch]
          var h       = 0
          while (h < hits.length) { written += store.extend(level, hits(h), hits(h + 1)); h += 2 }
          written.result()
        }
      }

      val sq     = decomposition.subqueries(i)
      val chain  = lists(i + 1)
      val single = StoredMatch(sigma, Vector(sigma)) // the one-edge match {σ}
      val delta: Vector[StoredMatch] =
        if (j == 0) run(Vector(chain.insertRoot(single)))
        else joinStep(run(chain.read(j - 1)), sq.seq.take(j), Vector(single), Vector(sq.seq(j)), chain, j)

      if (delta.nonEmpty && j == sq.size - 1) {
        if (k == 1) out ++= delta.map(sm => toMatch(sq.seq, sm.edges))
        else {
          var cur =
            if (i == 0) run(delta.map(l0.insertRoot))
            else joinStep(run(l0.read(i - 1)), decomposition.prefixEdges(i - 1), delta, sq.seq, l0, i)
          var x = i + 1
          while (x < k && cur.nonEmpty) {
            val subs = run(lists(x + 1).read(lists(x + 1).numLevels - 1))
            cur = joinStep(cur, decomposition.prefixEdges(x - 1), subs, decomposition.subqueries(x).seq, l0, x)
            x += 1
          }
          if (cur.nonEmpty) out ++= cur.map(sm => toMatch(decomposition.prefixEdges(k - 1), sm.edges))
        }
      }
    }
    out.result()
  }

  override def delete(sigma: StreamEdge): Unit = delete(sigma, Guard.NoOp)

  /** Algorithm 2 (full level sweep; empty levels are O(1)). */
  def delete(sigma: StreamEdge, guard: Guard): Unit = {
    for (i <- 0 until k if triggers(i, sigma)) {
      val chain     = lists(i + 1)
      val expiry    = chain.newExpiry(sigma, 0)
      var completes = 0 // removed from the last level, i.e. complete matches of subquery i
      for (j <- 0 until chain.numLevels)
        completes = guard.exec(ItemKey(i + 1, j), LockMode.X)(expiry.processLevel(j))
      if (k > 1) {
        if (completes > 0) {
          val jex = lists(0).newExpiry(sigma, i)
          for (x <- i until k)
            guard.exec(ItemKey(0, x), LockMode.X)(jex.processLevel(x))
        } else guard.skip(k - i)
      }
    }
  }

  private def toMatch(ids: IndexedSeq[Int], edges: IndexedSeq[StreamEdge]): Matching.Match =
    ids.zip(edges).toMap

  /** Ω(Q): the last item of `L_0`, or of the only subquery's list when k = 1. */
  override def results: Vector[Matching.Match] = {
    val last = if (k == 1) lists(1) else lists(0)
    last.read(last.numLevels - 1).map(sm => toMatch(decomposition.prefixEdges(k - 1), sm.edges))
  }

  override def spaceCells: Long = lists.map(_.spaceCells).sum

  /** Sizes of every item (diagnostics + paper-example tests). */
  def itemSizes: Map[ItemKey, Int] =
    (for (l <- lists.indices; level <- 0 until lists(l).numLevels)
      yield ItemKey(l, level) -> lists(l).size(level)).toMap
}
