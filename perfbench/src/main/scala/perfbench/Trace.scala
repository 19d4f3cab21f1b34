package perfbench

import repro.core._

/** Self time (ns) and work counts per engine layer, filled by the traced
  * run. Counts that belong to a step are kept per expansion-list item,
  * indexed by the item the step writes (its X access), so the paper
  * fixture check can compare them item by item.
  */
final class Layers(d: Decomposition) {

  /** Index of the first item of each list: `L_0` (list 0) has `k` items when
    * `k > 1`, list `i + 1` has one item per edge of subquery `i`.
    */
  private val base: Array[Int] =
    (Seq(if (d.k > 1) d.k else 0) ++ d.subqueries.map(_.size)).scanLeft(0)(_ + _).toArray

  val nItems: Int               = base.last
  def index(key: ItemKey): Int  = base(key.list) + key.level

  /** The item whose X write completes a match: `L_0`'s last item, or the
    * only chain's last item when the decomposition has one subquery.
    */
  val finalItem: ItemKey =
    if (d.k > 1) ItemKey(0, d.k - 1) else ItemKey(1, d.subqueries.head.size - 1)

  var dispatchNs, planNs, materializeNs       = 0L
  var extendReadNs, extendTestNs, extendWriteNs = 0L
  var joinReadNs, joinTestNs, joinWriteNs       = 0L
  var expiryNs, expiryChainNs, expiryJoinNs     = 0L
  var unmatched, planSteps, matches, removed    = 0L

  /** Chain steps: S-read size. `L_0` steps: S-read size × preceding X write size. */
  val tests = new Array[Long](nItems)
  /** Size of the X write that follows an S read (surviving candidates or pairs). */
  val hits = new Array[Long](nItems)
  /** `skip` calls whose first cancelled step writes this item (Lemma-1
    * discards on chain items, empty-join aborts on `L_0` items).
    */
  val skips = new Array[Long](nItems)

  private def sumOver(a: Array[Long], join: Boolean): Long =
    (0 until nItems).filter(i => (i < base(1)) == join).map(a(_)).sum

  def extendCandidates: Long = sumOver(tests, join = false)
  def extendHits: Long       = sumOver(hits, join = false)
  def extendDiscards: Long   = sumOver(skips, join = false)
  def pairTests: Long        = sumOver(tests, join = true)
  def pairHits: Long         = sumOver(hits, join = true)
  def joinAborts: Long       = sumOver(skips, join = true)

  /** Sum of all self times; partitions the traced engine calls. */
  def selfNs: Long =
    dispatchNs + planNs + materializeNs + extendReadNs + extendTestNs + extendWriteNs +
      joinReadNs + joinTestNs + joinWriteNs + expiryNs
}

/** Recording guard for one `insert(σ, guard)`, built from `insertPlan(σ)`.
  *
  * Every nanosecond from `start` until [[finish]] is charged to exactly one
  * layer. Time inside `exec` is store time (read for S, write for X). Time
  * between an S read and the next event is predicate time of that step. A
  * step is a join step when its X write is an `L_0` item and an extend
  * step when it is a chain item. Time after the write of the final item is
  * materialization. Everything else is dispatch: before the first access,
  * and between position groups.
  */
final class InsertRecorder(plan: Vector[(ItemKey, LockMode)], l: Layers, start: Long) extends Guard {

  private var cursor     = 0
  private var mark       = start
  private var afterRead  = false
  private var afterFinal = false
  private var lastWrite  = 0L

  private def chargeGap(now: Long): Unit = {
    val gap = now - mark
    if (afterRead) { if (plan(cursor)._1.list == 0) l.joinTestNs += gap else l.extendTestNs += gap }
    else if (afterFinal) l.materializeNs += gap
    else l.dispatchNs += gap
  }

  override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = {
    val t = System.nanoTime()
    require(cursor < plan.length && plan(cursor) == (key -> mode),
      s"insert step $cursor is ($key,$mode), plan says ${plan.lift(cursor)}")
    chargeGap(t)
    val a   = f
    val end = System.nanoTime()
    val n   = a match { case v: Vector[_] => v.size.toLong; case _ => 0L }
    mode match {
      case LockMode.S =>
        val w = plan(cursor + 1)._1
        if (w.list == 0) { l.joinReadNs += end - t; l.tests(l.index(w)) += n * lastWrite }
        else { l.extendReadNs += end - t; l.tests(l.index(w)) += n }
      case LockMode.X =>
        if (key.list == 0) l.joinWriteNs += end - t else l.extendWriteNs += end - t
        if (afterRead) l.hits(l.index(key)) += n
        lastWrite = n
    }
    afterRead = mode == LockMode.S
    afterFinal = mode == LockMode.X && key == l.finalItem
    cursor += 1
    mark = end
    a
  }

  override def skip(n: Int): Unit = {
    val t = System.nanoTime()
    chargeGap(t)
    l.skips(l.index(plan(cursor)._1)) += 1
    cursor += n
    mark = t
    afterRead = false
    afterFinal = false
  }

  def finish(): Unit = {
    chargeGap(System.nanoTime())
    require(cursor == plan.length, s"insert consumed $cursor of ${plan.length} plan steps")
  }
}

/** Recording guard for one `delete(σ, guard)`: store time per list kind and
  * the number of removed matches, checked step by step against `deletePlan(σ)`.
  */
final class DeleteRecorder(plan: Vector[(ItemKey, LockMode)], l: Layers) extends Guard {

  private var cursor = 0

  override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = {
    require(cursor < plan.length && plan(cursor) == (key -> mode),
      s"delete step $cursor is ($key,$mode), plan says ${plan.lift(cursor)}")
    val t   = System.nanoTime()
    val a   = f
    val end = System.nanoTime()
    if (key.list == 0) l.expiryJoinNs += end - t else l.expiryChainNs += end - t
    a match { case r: Int => l.removed += r; case _ => () }
    cursor += 1
    a
  }

  override def skip(n: Int): Unit = cursor += n

  def finish(): Unit =
    require(cursor == plan.length, s"delete consumed $cursor of ${plan.length} plan steps")
}

/** The benchmark's traced engine: times `insertPlan`/`deletePlan` as calls of
  * their own, then runs the engine's guarded `insert`/`delete` under a fresh
  * recorder each (a recorder shared by both would mix their gaps).
  */
final class TracedEngine(val engine: TimingEngine, val layers: Layers) extends EngineApi {

  override def insert(sigma: StreamEdge): Vector[Matching.Match] = {
    val t0   = System.nanoTime()
    val plan = engine.insertPlan(sigma)
    val t1   = System.nanoTime()
    layers.planNs += t1 - t0
    layers.planSteps += plan.length
    if (plan.isEmpty) layers.unmatched += 1
    val g   = new InsertRecorder(plan, layers, t1)
    val out = engine.insert(sigma, g)
    g.finish()
    layers.matches += out.size
    out
  }

  override def delete(sigma: StreamEdge): Unit = {
    val t0   = System.nanoTime()
    val plan = engine.deletePlan(sigma)
    val t1   = System.nanoTime()
    layers.planNs += t1 - t0
    layers.planSteps += plan.length
    val g = new DeleteRecorder(plan, layers)
    engine.delete(sigma, g)
    g.finish()
    layers.expiryNs += System.nanoTime() - t1
  }

  override def results: Vector[Matching.Match] = engine.results
  override def spaceCells: Long                = engine.spaceCells
}
