package repro.concurrent

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ItemKey, LockMode}

class LockSpec extends AnyFunSuite {

  private def req(lock: ItemLock, id: Long, m: LockMode) = new LockRequest(id, m, ItemKey(0, 0), lock)

  test("X locks serialize in wait-list (chronological) order") {
    val lock  = new ItemLock
    val order = new java.util.concurrent.ConcurrentLinkedQueue[Long]()
    val reqs  = (1L to 8L).map(i => req(lock, i, LockMode.X))
    reqs.foreach(lock.enqueue)
    val threads = reqs.reverse.map { r => // start in reverse to stress FIFO
      new Thread(() => {
        lock.acquire(r)
        order.add(r.txnId)
        Thread.sleep(1)
        lock.release(LockMode.X)
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join(10000))
    assert(order.toArray.toSeq == (1L to 8L))
  }

  test("shared locks overlap; exclusive excludes") {
    val lock    = new ItemLock
    val s1      = req(lock, 1, LockMode.S)
    val s2      = req(lock, 2, LockMode.S)
    val x3      = req(lock, 3, LockMode.X)
    Seq(s1, s2, x3).foreach(lock.enqueue)
    val both    = new CountDownLatch(2)
    val sInside = new AtomicInteger(0)
    val maxS    = new AtomicInteger(0)
    val xRan    = new CountDownLatch(1)
    def sThread(r: LockRequest) = new Thread(() => {
      lock.acquire(r)
      val now = sInside.incrementAndGet()
      maxS.getAndUpdate(m => math.max(m, now))
      both.countDown()
      both.await(5, TimeUnit.SECONDS) // hold until both S are inside
      sInside.decrementAndGet()
      lock.release(LockMode.S)
    })
    val t1 = sThread(s1); val t2 = sThread(s2)
    val t3 = new Thread(() => { lock.acquire(x3); xRan.countDown(); lock.release(LockMode.X) })
    t1.start(); t2.start(); t3.start()
    assert(both.await(5, TimeUnit.SECONDS), "both S held concurrently")
    Seq(t1, t2, t3).foreach(_.join(10000))
    assert(maxS.get() == 2)
    assert(xRan.await(1, TimeUnit.SECONDS))
  }

  test("cancel unblocks successors") {
    val lock = new ItemLock
    val r1   = req(lock, 1, LockMode.X)
    val r2   = req(lock, 2, LockMode.X)
    lock.enqueue(r1); lock.enqueue(r2)
    val done = new CountDownLatch(1)
    val t = new Thread(() => { lock.acquire(r2); done.countDown(); lock.release(LockMode.X) })
    t.start()
    Thread.sleep(30)
    assert(done.getCount == 1, "r2 blocked behind r1")
    lock.cancel(r1)
    assert(done.await(5, TimeUnit.SECONDS), "cancel(r1) must unblock r2")
    t.join(10000)
  }

  test("AllLocksGuard.dedup keeps strongest mode, first-occurrence order") {
    val a = ItemKey(1, 0); val b = ItemKey(0, 1)
    val plan = Vector(a -> LockMode.S, b -> LockMode.X, a -> LockMode.X, b -> LockMode.S)
    assert(AllLocksGuard.dedup(plan) == Vector(a -> LockMode.X, b -> LockMode.X))
  }

  test("S after S acquires without waiting for the later X") {
    val lock = new ItemLock
    val s1 = req(lock, 1, LockMode.S); val s2 = req(lock, 2, LockMode.S); val x3 = req(lock, 3, LockMode.X)
    Seq(s1, s2, x3).foreach(lock.enqueue)
    lock.acquire(s1)
    // s2 is now head and S-compatible: must not block
    val ok = new CountDownLatch(1)
    val t  = new Thread(() => { lock.acquire(s2); ok.countDown(); lock.release(LockMode.S) })
    t.start()
    assert(ok.await(5, TimeUnit.SECONDS))
    lock.release(LockMode.S)
    t.join(10000)
  }
}
