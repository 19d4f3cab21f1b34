package repro.core

import scala.collection.mutable

/** The live edges of a time-based sliding window (Definition 2), shared by
  * both window drivers. Edges leave oldest first, so `expire` always gets
  * the oldest live edge, as [[EngineApi.delete]] requires. `window` must be
  * positive: a smaller one would expire every edge but the newest.
  */
final class SlidingWindow(window: Long, expire: StreamEdge => Unit) {

  require(window > 0, s"window $window is not positive (Definition 2)")

  private val live   = mutable.Queue[StreamEdge]()
  private var lastTs = Long.MinValue

  /** Edges currently inside the window (the snapshot's edge set). */
  def snapshot: Vector[StreamEdge] = live.toVector

  /** Slide to σ's timestamp: every live edge with timestamp `≤ σ.ts − |W|`
    * goes to `expire`, oldest first, then σ is admitted. σ is rejected unless
    * its timestamp is after the previous one (Definition 1).
    */
  def slide(sigma: StreamEdge): Unit = {
    require(sigma.ts > lastTs,
      s"edge ${sigma.id}: timestamp ${sigma.ts} is not after $lastTs (Definition 1)")
    lastTs = sigma.ts
    while (live.nonEmpty && live.head.ts <= sigma.ts - window) expire(live.dequeue())
    live += sigma
  }
}

/** Drives an engine over a stream on a [[SlidingWindow]]: each arrival
  * first expires what left the window, then is inserted.
  */
final class WindowDriver(val engine: EngineApi, val window: Long) {

  private val live = new SlidingWindow(window, engine.delete)

  def snapshot: Vector[StreamEdge] = live.snapshot

  /** Slide the window to σ's timestamp and insert σ; returns new matches. */
  def advance(sigma: StreamEdge): Vector[Matching.Match] = {
    live.slide(sigma)
    engine.insert(sigma)
  }

  /** Run a whole stream, returning the total number of reported matches. */
  def run(stream: Iterable[StreamEdge]): Long = {
    var n = 0L
    stream.foreach(e => n += advance(e).size)
    n
  }
}
