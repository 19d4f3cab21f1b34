package repro.concurrent

import java.util.ArrayDeque
import scala.collection.mutable

import repro.core.{Guard, ItemKey, LockMode}

/** A pending lock request `⟨tID, locktype, L^j⟩` (§V-B), bound at dispatch
  * to the lock of its item.
  */
final class LockRequest(val txnId: Long, val mode: LockMode, val key: ItemKey, val lock: ItemLock)

/** The lock of one expansion-list item, with its thread-safe wait-list.
  *
  * Requests are appended by the single dispatcher in transaction-timestamp
  * order; a thread acquires only when its request is at the *head* of the
  * wait-list and the current lock state is compatible (Algorithm 4). This
  * enforces the chronological schedule that streaming consistency
  * (Definition 11, Theorem 4) requires.
  */
final class ItemLock {

  private val waiting              = new ArrayDeque[LockRequest]()
  private var sharedHolders: Int   = 0
  private var exclusiveHeld: Boolean = false

  private def compatible(mode: LockMode): Boolean = mode match {
    case LockMode.S => !exclusiveHeld
    case LockMode.X => !exclusiveHeld && sharedHolders == 0
  }

  /** Dispatcher-side: append a request to the wait-list (FIFO). */
  def enqueue(r: LockRequest): Unit = synchronized { waiting.addLast(r) }

  /** Transaction-side: block until granted (Algorithm 4, apply). */
  def acquire(r: LockRequest): Unit = synchronized {
    while (!(waiting.peekFirst() eq r) || !compatible(r.mode)) wait()
    waiting.pollFirst()
    r.mode match {
      case LockMode.S => sharedHolders += 1
      case LockMode.X => exclusiveHeld = true
    }
    notifyAll() // the next head may also be grantable (S after S)
  }

  /** Transaction-side: release and wake the head waiter (Algorithm 4). */
  def release(mode: LockMode): Unit = synchronized {
    mode match {
      case LockMode.S => sharedHolders -= 1
      case LockMode.X => exclusiveHeld = false
    }
    notifyAll()
  }

  /** Remove a request that will never be claimed (early-terminated txn). */
  def cancel(r: LockRequest): Unit = synchronized {
    waiting.remove(r)
    notifyAll()
  }
}

/** Fine-grained guard (the paper's scheme): claims each pre-enqueued
  * request exactly when the engine reaches that plan step; at most one
  * item lock is held at a time, so deadlock is impossible (§V-B).
  */
final class TxnGuard(requests: IndexedSeq[LockRequest]) extends Guard {

  private var cursor = 0

  override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = {
    val r = requests(cursor)
    require(r.key == key && r.mode == mode, s"plan mismatch at $cursor: planned (${r.key},${r.mode}), got ($key,$mode)")
    cursor += 1
    r.lock.acquire(r)
    try f
    finally r.lock.release(mode)
  }

  override def skip(n: Int): Unit = {
    var i = 0
    while (i < n) {
      val r = requests(cursor)
      cursor += 1
      r.lock.cancel(r)
      i += 1
    }
  }

  /** Cancel anything left (defensive; a correct run consumes everything). */
  def finish(): Unit = skip(requests.length - cursor)
}

/** All-locks baseline guard (§VII-D): acquires every request up front
  * (deduplicated per item, X dominating S), runs the whole transaction,
  * then releases — serialising any two transactions that share an item.
  */
final class AllLocksGuard(requests: IndexedSeq[LockRequest]) extends Guard {

  def acquireAll(): Unit = requests.foreach(r => r.lock.acquire(r))

  def releaseAll(): Unit = requests.reverseIterator.foreach(r => r.lock.release(r.mode))

  override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = f
  override def skip(n: Int): Unit                                = ()
}

object AllLocksGuard {

  /** Plan dedup used by the dispatcher for All-locks transactions: the
    * strongest mode per item wins, first-occurrence order is kept.
    * Re-acquiring a held item would self-deadlock under up-front
    * acquisition.
    */
  def dedup(plan: Vector[(ItemKey, LockMode)]): Vector[(ItemKey, LockMode)] = {
    val seen = mutable.LinkedHashMap[ItemKey, LockMode]()
    plan.foreach { case (k, m) =>
      seen.get(k) match {
        case Some(LockMode.X) => ()
        case Some(LockMode.S) => if (m == LockMode.X) seen(k) = LockMode.X
        case None             => seen(k) = m
      }
    }
    seen.toVector
  }
}
