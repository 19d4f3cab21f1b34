package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** A node of an MS-tree (Definition 10).
  *
  * Besides child links, a node keeps a link to its parent and sits in a
  * per-level doubly linked list — the extra links the paper adds over a
  * plain trie (§IV-C). `alive` is volatile because the L0 tree reads leaf
  * liveness across lock domains (§V-C).
  */
final class MsNode[P](val payload: P, val level: Int, val parent: MsNode[P]) {
  @volatile var alive: Boolean        = true
  var prev: MsNode[P]                 = _
  var next: MsNode[P]                 = _
  val children: mutable.Set[MsNode[P]] = mutable.LinkedHashSet()

  /** The edges of the root→this path, set once at insertion (an immutable
    * Vector that extends the parent's, so prefixes share structure —
    * the persistent-collection analogue of the trie's prefix sharing).
    * Immutable after insert, hence safe for concurrent readers.
    */
  var cachedPath: IndexedSeq[StreamEdge] = _
}

/** Match-store tree (§IV): a trie variant whose level-`i` nodes are the
  * matches of expansion-list item `L^{i+1}`, with per-level doubly linked
  * lists for horizontal access and *partial removal* for concurrent safety.
  *
  * Thread-safety contract (matches the paper's item-lock granularity):
  *   - the level-`l` linked list, the `children` sets of level-`l-1` nodes,
  *     and the `alive` flags of level-`l` nodes are only mutated while the
  *     caller holds the X lock of expansion-list item `l+1`;
  *   - `payload`, `level` and `parent` are immutable, so backtracking a
  *     path upward is always safe, even through partially removed nodes —
  *     exactly the property Theorem 6 relies on.
  */
final class MsTree[P](val numLevels: Int) {

  // Sentinel heads/tails so unlinking needs no special cases.
  private val heads = Array.fill(numLevels)(new MsNode[P](null.asInstanceOf[P], -1, null))
  private val tails = Array.fill(numLevels)(new MsNode[P](null.asInstanceOf[P], -1, null))
  (0 until numLevels).foreach { l => heads(l).next = tails(l); tails(l).prev = heads(l) }

  private val counts = new java.util.concurrent.atomic.AtomicLongArray(numLevels)

  /** Append a node at `level` (root children when `parent == null`). */
  def add(parent: MsNode[P], payload: P, level: Int): MsNode[P] = {
    require(level == (if (parent == null) 0 else parent.level + 1), "level/parent mismatch")
    val n = new MsNode[P](payload, level, parent)
    if (parent != null) parent.children += n
    val t = tails(level)
    n.prev = t.prev; n.next = t
    t.prev.next = n; t.prev = n
    counts.incrementAndGet(level)
    n
  }

  /** Snapshot of the live nodes at `level` (the doubly-linked-list walk). */
  def levelNodes(level: Int): Vector[MsNode[P]] = {
    val b = Vector.newBuilder[MsNode[P]]
    var n = heads(level).next
    while (n ne tails(level)) { b += n; n = n.next }
    b.result()
  }

  /** Payloads along the path root→n (the match in sequential form). */
  def pathPayloads(n: MsNode[P]): IndexedSeq[P] = {
    val buf = new Array[Any](n.level + 1)
    var cur = n
    while (cur != null) { buf(cur.level) = cur.payload; cur = cur.parent }
    buf.toIndexedSeq.asInstanceOf[IndexedSeq[P]]
  }

  /** Partial removal (§V-C, Fig 14): unlink from the level list and from
    * the parent's child set; keep the upward pointer and the node's own
    * child set so concurrent earlier readers can still backtrack and the
    * deleter can still find the node's descendants.
    */
  def partialRemove(n: MsNode[P]): Unit = {
    if (!n.alive) return
    n.alive = false
    n.prev.next = n.next
    n.next.prev = n.prev
    if (n.parent != null) n.parent.children -= n
    counts.decrementAndGet(n.level)
  }

  /** Algorithm 2's level sweep: at each level, partially remove the live
    * children of the nodes removed one level up, plus the live `seeds` of
    * that level. The caller steps through the levels in order.
    */
  def sweep(seeds: Int => Iterable[MsNode[P]]): Expiry = {
    var removedPrev: List[MsNode[P]] = Nil
    level => {
      val targets = mutable.ArrayBuffer[MsNode[P]]()
      // Children of nodes removed one level up (read here, under this level's lock).
      removedPrev.foreach(n => targets ++= n.children)
      targets ++= seeds(level)
      val removed = targets.filter(_.alive).toList
      removed.foreach(partialRemove)
      removedPrev = removed
      removed.size
    }
  }

  def levelSize(level: Int): Int = counts.get(level).toInt

  /** Live node count = MS-tree space in "cells" (§VII space metric). */
  def liveCount: Long = (0 until numLevels).map(counts.get).sum
}
