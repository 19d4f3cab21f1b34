package repro.concurrent

import java.util.concurrent.{ConcurrentLinkedQueue, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicLong

import repro.core._

/** Concurrent continuous-query processor (Algorithm 3).
  *
  * A single main thread (the caller of [[submitInsert]]/[[submitDelete]])
  * dispatches each edge operation: it computes the transaction's lock plan
  * from the engine, enqueues every lock request into the item wait-lists
  * (serially, in chronological order — which keeps each wait-list sorted
  * by transaction timestamp), and launches the transaction on a fixed pool
  * of `nThreads` workers. `mode` selects the paper's fine-grained locking
  * (`Fine`, one item at a time) or the All-locks comparison baseline.
  */
final class ConcurrentEngine(
    val engine: TimingEngine,
    val nThreads: Int,
    val fineGrained: Boolean = true,
) {

  // One lock per item, fixed with the engine's items; read by the dispatcher only.
  private val locks   = engine.itemSizes.map { case (key, _) => key -> new ItemLock }
  private val pool    = Executors.newFixedThreadPool(nThreads)
  private val pending = new AtomicLong(0)
  private val txnSeq  = new AtomicLong(0)

  /** Number of transactions dispatched so far. */
  private[concurrent] def dispatched: Long = txnSeq.get()

  /** New complete matches reported by transactions (thread-safe). */
  val reported = new ConcurrentLinkedQueue[Matching.Match]()

  private def launch(plan: Vector[(ItemKey, LockMode)])(body: Guard => Unit): Unit = {
    if (plan.isEmpty) return // σ matches no query edge: CONTINUE (Alg 3)
    val txn  = txnSeq.incrementAndGet()
    val reqs = // dispatch before launch: bind each request to its item's lock and append it
      (if (fineGrained) plan else AllLocksGuard.dedup(plan)).map { case (key, m) =>
        val r = new LockRequest(txn, m, key, locks(key))
        r.lock.enqueue(r)
        r
      }
    pending.incrementAndGet()
    pool.execute { () =>
      try {
        if (fineGrained) { val g = new TxnGuard(reqs); body(g); g.finish() }
        else { val g = new AllLocksGuard(reqs); g.acquireAll(); try body(g) finally g.releaseAll() }
      } finally { pending.decrementAndGet(); synchronized(notifyAll()) }
    }
  }

  /** Dispatch Ins(σ). Must be called from a single thread, in timestamp
    * order, deletions of a time point before its insertion.
    */
  def submitInsert(sigma: StreamEdge): Unit =
    launch(engine.insertPlan(sigma)) { g =>
      engine.insert(sigma, g).foreach(reported.add)
    }

  /** Dispatch Del(σ). */
  def submitDelete(sigma: StreamEdge): Unit =
    launch(engine.deletePlan(sigma))(g => engine.delete(sigma, g))

  /** Block until every dispatched transaction has finished. */
  def quiesce(): Unit = synchronized {
    while (pending.get() > 0) wait(50)
  }

  def shutdown(): Unit = {
    quiesce()
    pool.shutdown()
    pool.awaitTermination(60, TimeUnit.SECONDS)
  }
}

/** Sliding-window driver for the concurrent engines: expiries and the
  * insertion of each arriving edge are dispatched in chronological order,
  * on the same [[SlidingWindow]] as [[repro.core.WindowDriver]] uses for
  * the serial engine.
  */
final class ConcurrentWindowDriver(val ce: ConcurrentEngine, val window: Long) {

  private val live = new SlidingWindow(window, ce.submitDelete)

  def snapshot: Vector[StreamEdge] = live.snapshot

  def advance(sigma: StreamEdge): Unit = {
    live.slide(sigma)
    ce.submitInsert(sigma)
  }

  def run(stream: Iterable[StreamEdge]): Unit = {
    stream.foreach(advance)
    ce.quiesce()
  }
}
