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

  private[repro] val chains: IndexedSeq[ChainStore] =
    decomposition.subqueries.map { sq =>
      mode match {
        case StoreMode.MsTree      => new MsChainStore(sq.size)
        case StoreMode.Independent => new IndStore(sq.size)
      }
    }

  private[repro] val join: Option[JoinStore] =
    if (k == 1) None
    else Some(mode match {
      case StoreMode.MsTree      => new MsJoinStore(k)
      case StoreMode.Independent => new IndStore(k)
    })

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

  private def chainKey(i: Int, j: Int): ItemKey = ItemKey(i + 1, j)
  private def l0Key(x: Int): ItemKey            = ItemKey(0, x)

  /** (subquery, position) pairs whose query edge σ can match, in the fixed
    * iteration order shared by plan and execution.
    */
  private def positionsMatching(sigma: StreamEdge): IndexedSeq[(Int, Int)] =
    for {
      i <- 0 until k
      j <- 0 until chains(i).numLevels
      // query graphs have no self-loops, so self-loop data edges never match
      if sigma.src != sigma.dst
      if q.matchesEdge(q.edgeById(decomposition.subqueries(i).seq(j)), sigma)
    } yield (i, j)

  /** Lock-plan steps for handling σ matching position (i, j) — worst case:
    * every join is assumed non-empty (§V-A's analysis style).
    */
  private def groupSteps(i: Int, j: Int): Vector[(ItemKey, LockMode)] = {
    val b     = Vector.newBuilder[(ItemKey, LockMode)]
    val lastJ = chains(i).numLevels - 1
    if (j == 0) b += chainKey(i, 0) -> LockMode.X
    else { b += chainKey(i, j - 1) -> LockMode.S; b += chainKey(i, j) -> LockMode.X }
    if (j == lastJ && k > 1) {
      if (i == 0) b += l0Key(0) -> LockMode.X
      else { b += l0Key(i - 1) -> LockMode.S; b += l0Key(i) -> LockMode.X }
      for (x <- i + 1 until k) {
        b += chainKey(x, chains(x).numLevels - 1) -> LockMode.S
        b += l0Key(x)                     -> LockMode.X
      }
    }
    b.result()
  }

  /** Full lock plan of Ins(σ); empty iff σ matches no query edge. */
  def insertPlan(sigma: StreamEdge): Vector[(ItemKey, LockMode)] =
    positionsMatching(sigma).flatMap { case (i, j) => groupSteps(i, j) }.toVector

  /** Positions of subquery `i`'s sequence that σ matches: the levels where
    * Del(σ) starts removing matches of that list (Algorithm 2).
    */
  private def triggers(i: Int, sigma: StreamEdge): Set[Int] =
    (0 until chains(i).numLevels)
      .filter(j => q.matchesEdge(q.edgeById(decomposition.subqueries(i).seq(j)), sigma))
      .toSet

  /** Full lock plan of Del(σ); empty iff σ matches no query edge. */
  def deletePlan(sigma: StreamEdge): Vector[(ItemKey, LockMode)] = {
    val b = Vector.newBuilder[(ItemKey, LockMode)]
    for (i <- 0 until k if triggers(i, sigma).nonEmpty) {
      (0 until chains(i).numLevels).foreach(j => b += chainKey(i, j) -> LockMode.X)
      if (k > 1) (i until k).foreach(x => b += l0Key(x) -> LockMode.X)
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

      /** `left ⋈ᵀ right`: test every pair, then `write` each compatible pair
        * under the group's next step. No pair (or the work cap) makes σ
        * discardable for the rest of the group (Lemma 1).
        */
      def joinStep(left: Vector[StoredMatch], leftIds: IndexedSeq[Int],
                   right: Vector[StoredMatch], rightIds: IndexedSeq[Int])(
          write: (StoredMatch, StoredMatch) => StoredMatch): Vector[StoredMatch] = {
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
          while (h < hits.length) { written += write(hits(h), hits(h + 1)); h += 2 }
          written.result()
        }
      }

      val sq = decomposition.subqueries(i)
      val delta: Vector[StoredMatch] =
        if (j == 0) run(Vector(chains(i).insertRoot(sigma)))
        else
          joinStep(run(chains(i).read(j - 1)), sq.seq.take(j),
                   Vector(StoredMatch(sigma, Vector(sigma))), Vector(sq.seq(j)))(
            (pm, _) => chains(i).extend(j, pm, sigma))

      if (delta.nonEmpty && j == sq.size - 1) {
        if (k == 1) out ++= delta.map(sm => toMatch(sq.seq, sm.edges))
        else {
          val js = join.get
          var cur =
            if (i == 0) run(delta.map(js.insertRoot))
            else joinStep(run(js.read(i - 1)), decomposition.prefixEdges(i - 1), delta, sq.seq)(
              js.extend(i, _, _))
          var x = i + 1
          while (x < k && cur.nonEmpty) {
            val subs = run(chains(x).read(chains(x).numLevels - 1))
            cur = joinStep(cur, decomposition.prefixEdges(x - 1), subs, decomposition.subqueries(x).seq)(
              js.extend(x, _, _))
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
    for (i <- 0 until k) {
      val trig = triggers(i, sigma)
      if (trig.nonEmpty) {
        val expiry    = chains(i).newExpiry(sigma, trig)
        var completes = 0 // removed from the last level, i.e. complete matches of subquery i
        for (j <- 0 until chains(i).numLevels)
          completes = guard.exec(chainKey(i, j), LockMode.X)(expiry.processLevel(j))
        if (k > 1) {
          if (completes > 0) {
            val jex = join.get.newExpiry(sigma, i)
            for (x <- i until k)
              guard.exec(l0Key(x), LockMode.X)(jex.processLevel(x))
          } else guard.skip(k - i)
        }
      }
    }
  }

  private def toMatch(ids: IndexedSeq[Int], edges: IndexedSeq[StreamEdge]): Matching.Match =
    ids.zip(edges).toMap

  override def results: Vector[Matching.Match] =
    if (k == 1)
      chains(0).read(chains(0).numLevels - 1).map(sm => toMatch(decomposition.subqueries(0).seq, sm.edges))
    else
      join.get.read(k - 1).map(sm => toMatch(decomposition.prefixEdges(k - 1), sm.edges))

  override def spaceCells: Long =
    chains.map(_.spaceCells).sum + join.map(_.spaceCells).getOrElse(0L)

  /** Sizes of every item (diagnostics + paper-example tests). */
  def itemSizes: Map[ItemKey, Int] = {
    val m = mutable.Map[ItemKey, Int]()
    for (i <- 0 until k; j <- 0 until chains(i).numLevels) m(chainKey(i, j)) = chains(i).size(j)
    join.foreach(js => (0 until k).foreach(x => m(l0Key(x)) = js.size(x)))
    m.toMap
  }
}
