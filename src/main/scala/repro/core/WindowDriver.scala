package repro.core

import scala.collection.mutable

/** Drives an engine over a stream under the time-based sliding window
  * (Definition 2): before inserting an edge at time `t`, every live edge
  * with timestamp `≤ t − |W|` is expired, in timestamp order. Arrivals
  * must have unique, strictly increasing timestamps (Definition 1).
  */
final class WindowDriver(val engine: EngineApi, val window: Long) {

  private val live   = mutable.Queue[StreamEdge]()
  private var lastTs = Long.MinValue

  /** Edges currently inside the window (the snapshot's edge set). */
  def snapshot: Vector[StreamEdge] = live.toVector

  /** Expire edges that fall out of the window as of time `now`. Private:
    * a `now` later than the next arrival would delete edges that are still
    * live at that arrival's timestamp.
    */
  private def expireUpTo(now: Long): Unit =
    while (live.nonEmpty && live.head.ts <= now - window) engine.delete(live.dequeue())

  /** Slide the window to σ's timestamp and insert σ; returns new matches. */
  def advance(sigma: StreamEdge): Vector[Matching.Match] = {
    require(sigma.ts > lastTs,
      s"edge ${sigma.id}: timestamp ${sigma.ts} is not after $lastTs (Definition 1)")
    lastTs = sigma.ts
    expireUpTo(sigma.ts)
    live += sigma
    engine.insert(sigma)
  }

  /** Run a whole stream, returning the total number of reported matches. */
  def run(stream: Iterable[StreamEdge]): Long = {
    var n = 0L
    stream.foreach(e => n += advance(e).size)
    n
  }
}
