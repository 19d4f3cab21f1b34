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
  /** Process an expired edge, which must be the oldest live one (Definition 2). */
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

  // Query-edge layout and probe keys of every store level, built once, with
  // index loops because each closure costs a cold build a lambda bootstrap.
  // `ids(l)(level)`: the query edges of the matches at that level
  // of list `l`, in sequential order. `keys(l)(level)`: where those matches
  // hold the vertex the level is keyed by (null when unkeyed), and
  // `probeKeys(l)(level)`: where the other side of the one join step that
  // reads the level holds the same query vertex. `one(i)(j)`: the query edge
  // at position `j` of subquery `i`, as the ids of the one-edge match {σ}.
  private val ids       = new Array[Array[IndexedSeq[Int]]](k + 1)
  private val keys      = new Array[Array[VertexKey]](k + 1)
  private val probeKeys = new Array[Array[VertexKey]](k + 1)
  private val one       = new Array[Array[IndexedSeq[Int]]](k)

  /** Keys level `level` of list `l` by the first query vertex its matches
    * share with `other`, the query edges of the side that probes it. The
    * decomposition is prefix-connected (timing sequences and join order), so
    * one always exists.
    */
  private def keyLevel(l: Int, level: Int, other: IndexedSeq[Int]): Unit = {
    val own = ids(l)(level)
    var a   = 0
    while (a < own.length) {
      val ea = q.edgeById(own(a))
      var b  = 0
      while (b < other.length) {
        val eb = q.edgeById(other(b))
        val atSrc = ea.src == eb.src || ea.src == eb.dst
        if (atSrc || ea.dst == eb.src || ea.dst == eb.dst) {
          val v = if (atSrc) ea.src else ea.dst
          keys(l)(level) = VertexKey(a, atSrc)
          probeKeys(l)(level) = VertexKey(b, eb.src == v)
          return
        }
        b += 1
      }
      a += 1
    }
    throw new IllegalArgumentException(s"item ($l, $level) shares no query vertex with its join partner")
  }

  /** The query edges of a complete match, in the order results are stored. */
  private val resultIds = decomposition.prefixEdges(k - 1)

  locally {
    val l0Levels = if (k == 1) 0 else k
    ids(0) = new Array(l0Levels); keys(0) = new Array(l0Levels); probeKeys(0) = new Array(l0Levels)
    var x = 0
    while (x < l0Levels) {
      ids(0)(x) = decomposition.prefixEdges(x)
      // L_0 level x is probed by each new match of subquery x + 1.
      if (x < k - 1) keyLevel(0, x, decomposition.subqueries(x + 1).seq)
      x += 1
    }
    var i = 0
    while (i < k) {
      val seq = decomposition.subqueries(i).seq
      val n   = seq.length
      ids(i + 1) = new Array(n); keys(i + 1) = new Array(n); probeKeys(i + 1) = new Array(n)
      one(i) = new Array(n)
      var j = 0
      while (j < n) { ids(i + 1)(j) = seq.take(j + 1); one(i)(j) = seq.slice(j, j + 1); j += 1 }
      j = 0
      while (j < n) {
        // A chain level is probed by σ at the next position; the last level
        // of a later subquery by each `L_0` match of the subqueries before it.
        if (j < n - 1) keyLevel(i + 1, j, one(i)(j + 1))
        else if (i >= 1) keyLevel(i + 1, j, ids(0)(i - 1))
        j += 1
      }
      i += 1
    }
  }

  /** The expansion lists, numbered as [[ItemKey.list]]: `lists(0)` is
    * `L_0` (no levels when k = 1) and `lists(i + 1)` is subquery `i`'s list.
    */
  private val lists = new Array[MatchStore](k + 1)
  locally {
    var l = 0
    while (l <= k) {
      lists(l) = mode match {
        case StoreMode.MsTree      => if (l == 0) new MsJoinStore(keys(0)) else new MsChainStore(keys(l))
        case StoreMode.Independent => new IndStore(keys(l))
      }
      l += 1
    }
  }

  private[repro] def chains(i: Int): MatchStore = lists(i + 1)

  /** Join operations performed (for validating Theorem 7's cost model). */
  val joinOps = new LongAdder

  /** Pair tests performed: each join step tests every candidate its probe
    * returned against the one match it was probed for.
    */
  val pairTests = new LongAdder

  /** Optional per-insert work cap (candidates tested) for *benchmark* use
    * only: a dense workload can make one cascade test 10⁸ candidates. Once
    * an insert is over the cap, each further join step aborts its group like
    * an empty join (plan-consistently); capped inserts are counted in
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

  /** Lock-plan steps for handling σ matching position (i, j), which `insert`
    * walks — worst case: every join is assumed non-empty (§V-A's analysis
    * style).
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

  /** Can Del(σ) remove matches of subquery `i`'s list (Algorithm 2)? Only if
    * σ matches the first edge, a match's oldest: a match holding σ later left
    * the window with that edge. Never for a self-loop, which no insert stores.
    */
  private def triggers(i: Int, sigma: StreamEdge): Boolean =
    sigma.src != sigma.dst && q.matchesEdge(q.edgeById(decomposition.subqueries(i).seq(0)), sigma)

  /** Full lock plan of Del(σ); empty iff σ matches no subquery's first edge. */
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

  /** Algorithm 1, walking each matched position's lock plan. Every item
    * update is the time-constrained join ⋈ᵀ (Theorem 2): a chain item is
    * `L^{j-1} ⋈ᵀ {σ}`, an `L_0` item is the joined prefix ⋈ᵀ the new subquery
    * matches. Each step probes the item it reads by the vertex the new side
    * binds to the item's key, never the whole item.
    */
  def insert(sigma: StreamEdge, guard: Guard): Vector[Matching.Match] = {
    val out    = Vector.newBuilder[Matching.Match]
    var work   = 0L
    var capped = false

    /** `cur ⋈ᵀ` item `read`: under `read`'s S lock, probe it once per match
      * of `cur`; test every candidate against the match it was probed for,
      * then extend item `write` by each compatible pair under its X lock. The
      * parent of a new match is the probed one when both items are in one
      * list and the `cur` one otherwise. No pair (or the work cap) makes σ
      * discardable for the rest of the group (Lemma 1): its remaining
      * `skip` steps are cancelled.
      */
    def joinStep(cur: Vector[StoredMatch], curIds: IndexedSeq[Int],
                 read: ItemKey, write: ItemKey, skip: Int): Vector[StoredMatch] = {
      val big  = lists(read.list)
      val key  = probeKeys(read.list)(read.level)
      val ends = if (cur.length == 1) null else new Array[Int](cur.length) // candidate ranges
      val cands = guard.exec(read, LockMode.S) {
        if (ends == null) big.probe(read.level, key.of(cur(0).edges))
        else {
          val b = Vector.newBuilder[StoredMatch]
          var a = 0
          var n = 0
          while (a < cur.length) {
            val found = big.probe(read.level, key.of(cur(a).edges))
            b ++= found
            n += found.length
            ends(a) = n
            a += 1
          }
          b.result()
        }
      }
      joinOps.increment()
      work += cands.length
      val hits = mutable.ArrayBuffer[StoredMatch]() // compatible pairs as (parent, sub), flattened
      if (workCap > 0 && work > workCap) {
        if (!capped) { capped = true; cappedInserts.increment() }
      } else {
        pairTests.add(cands.length)
        val bigIds = ids(read.list)(read.level)
        val within = read.list == write.list
        var a      = 0
        var c      = 0
        while (a < cur.length) {
          val s   = cur(a)
          val end = if (ends == null) cands.length else ends(a)
          while (c < end) {
            val m = cands(c)
            if (Matching.crossCompatible(q, curIds, s.edges, bigIds, m.edges)) {
              if (within) { hits += m; hits += s } else { hits += s; hits += m }
            }
            c += 1
          }
          a += 1
        }
      }
      if (hits.isEmpty) { guard.skip(skip); Vector.empty }
      else guard.exec(write, LockMode.X) {
        val store   = lists(write.list)
        val written = Vector.newBuilder[StoredMatch]
        var h       = 0
        while (h < hits.length) { written += store.extend(write.level, hits(h), hits(h + 1)); h += 2 }
        written.result()
      }
    }

    for ((i, j) <- positionsMatching(sigma)) {
      // The current matches start as the one-edge match {σ}. An X step with
      // no S before it inserts them as roots; an S step joins them with the
      // item it reads and writes the pairs under the X step after it.
      val steps  = groupSteps(i, j)
      var cur    = Vector(StoredMatch(sigma, Vector(sigma)))
      var curIds = one(i)(j)
      var s      = 0
      while (s < steps.length && cur.nonEmpty) {
        val (key, mode) = steps(s)
        val w           = if (mode == LockMode.X) s else s + 1 // the step that writes
        val write       = steps(w)._1
        cur =
          if (w == s) guard.exec(key, mode)(cur.map(lists(key.list).insertRoot))
          else joinStep(cur, curIds, key, write, steps.length - w)
        curIds = ids(write.list)(write.level)
        s = w + 1
      }
      // A group that ran to its end at the chain's last position wrote
      // complete matches: of Q when k = 1, else the cascade's last L_0 item.
      if (cur.nonEmpty && j == lists(i + 1).numLevels - 1) out ++= cur.map(sm => new MatchView(resultIds, sm.edges))
    }
    out.result()
  }

  override def delete(sigma: StreamEdge): Unit = delete(sigma, Guard.NoOp)

  /** Algorithm 2 for σ, the oldest live edge (full level sweep; empty levels
    * are O(1)). `L_0` starts from the complete subquery matches the chain's
    * sweep removed, which its cursor took under the last chain item's lock.
    */
  def delete(sigma: StreamEdge, guard: Guard): Unit = {
    for (i <- 0 until k if triggers(i, sigma)) {
      val chain     = lists(i + 1)
      val expiry    = chain.newExpiry(sigma, 0)
      var completes = 0 // removed from the last level, i.e. complete matches of subquery i
      for (j <- 0 until chain.numLevels)
        completes = guard.exec(ItemKey(i + 1, j), LockMode.X)(expiry.processLevel(j))
      if (k > 1) {
        if (completes > 0) {
          val jex = lists(0).newExpiry(sigma, i, expiry.removed)
          for (x <- i until k)
            guard.exec(ItemKey(0, x), LockMode.X)(jex.processLevel(x))
        } else guard.skip(k - i)
      }
    }
  }

  /** Ω(Q): the last item of `L_0`, or of the only subquery's list when k = 1.
    * Like the matches [[insert]] returns, each is a [[MatchView]] over its
    * stored path.
    */
  override def results: Vector[Matching.Match] = {
    val last = if (k == 1) lists(1) else lists(0)
    last.read(last.numLevels - 1).map(sm => new MatchView(resultIds, sm.edges))
  }

  override def spaceCells: Long = lists.map(_.spaceCells).sum

  /** Sizes of every item (diagnostics + paper-example tests). */
  def itemSizes: Map[ItemKey, Int] =
    (for (l <- lists.indices; level <- 0 until lists(l).numLevels)
      yield ItemKey(l, level) -> lists(l).size(level)).toMap
}
