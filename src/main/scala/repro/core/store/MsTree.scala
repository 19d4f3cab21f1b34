package repro.core.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.core.StreamEdge

/** A node of an MS-tree (Definition 10).
  *
  * Besides child links, a node keeps a link to its parent and sits in a
  * per-level doubly linked list — the extra links the paper adds over a
  * plain trie (§IV-C). On a keyed level it also sits in the bucket of its
  * `key` vertex. It stores no path: [[path]] backtracks its match. `alive`
  * is volatile because the L0 tree reads leaf liveness across lock domains
  * (§V-C); `payload`, `level`, `parent` and `key` are immutable (see the
  * [[MsTree]] thread-safety contract).
  */
final class MsNode[P](val payload: P, val level: Int, val parent: MsNode[P], val key: Long) {
  @volatile var alive: Boolean = true
  var prev: MsNode[P]          = _
  var next: MsNode[P]          = _
  // Bucket links: `keyNext` is null at the bucket's tail, and the head's
  // `keyPrev` is the tail, so appending needs no tail map.
  private[store] var keyPrev: MsNode[P] = _
  private[store] var keyNext: MsNode[P] = _
  // Allocated with the first child, so leaves never hold one.
  private[store] var kids: mutable.LinkedHashSet[MsNode[P]] = _

  /** The node's children; empty for a leaf. */
  def children: collection.Set[MsNode[P]] = if (kids == null) Set.empty else kids

  /** This node's match, read by backtracking (§IV-A): the payloads along
    * root→this, where a payload that is itself a node — an `L_0` reference
    * to a subquery leaf — stands for that node's match.
    */
  def path: Vector[Any] = { val a = new Array[AnyRef](width); fill(a, 0); Vector.from(ArraySeq.unsafeWrapArray(a)) }

  private def width: Int =
    (payload match { case leaf: MsNode[_] => leaf.width; case _ => 1 }) + (if (parent == null) 0 else parent.width)

  /** Writes [[path]] into `a` from `from`; returns the index after it. */
  private def fill(a: Array[AnyRef], from: Int): Int = {
    val i = if (parent == null) from else parent.fill(a, from)
    payload match { case leaf: MsNode[_] => leaf.fill(a, i); case p => a(i) = p.asInstanceOf[AnyRef]; i + 1 }
  }
}

/** Match-store tree (§IV): a trie variant whose level-`i` nodes are the
  * matches of expansion-list item `L^{i+1}`, with per-level doubly linked
  * lists for horizontal access and *partial removal* for concurrent safety.
  * A level with a key (`keys(level)`, `null` for none) also keeps a map from
  * each key vertex to an intrusive bucket of that level's live nodes.
  *
  * Thread-safety contract (matches the paper's item-lock granularity):
  *   - the level-`l` linked list and buckets, the `children` sets of
  *     level-`l-1` nodes, and the `alive` flags of level-`l` nodes are only
  *     mutated while the caller holds the X lock of expansion-list item
  *     `l+1`; [[probe]] only reads them;
  *   - `payload`, `level`, `parent` and `key` are immutable, so
  *     backtracking a path upward is always safe, even through partially
  *     removed nodes — exactly the property Theorem 6 relies on.
  */
final class MsTree[P](keys: Array[VertexKey]) {

  val numLevels: Int = keys.length

  // Sentinel heads/tails so unlinking needs no special cases, and per keyed
  // level the map from key vertex to bucket head (null for an unkeyed level).
  private val heads   = new Array[MsNode[P]](numLevels)
  private val tails   = new Array[MsNode[P]](numLevels)
  private val buckets = new Array[mutable.LongMap[MsNode[P]]](numLevels)
  locally {
    var l = 0
    while (l < numLevels) {
      heads(l) = new MsNode[P](null.asInstanceOf[P], -1, null, 0L)
      tails(l) = new MsNode[P](null.asInstanceOf[P], -1, null, 0L)
      heads(l).next = tails(l); tails(l).prev = heads(l)
      if (keys(l) != null) buckets(l) = new mutable.LongMap
      l += 1
    }
  }

  private val counts = new java.util.concurrent.atomic.AtomicLongArray(numLevels)

  /** Append a node at `level` (root children when `parent == null`);
    * `path` is its root→node edges, from which a keyed level reads the key.
    */
  def add(parent: MsNode[P], payload: P, level: Int, path: IndexedSeq[StreamEdge]): MsNode[P] = {
    require(level == (if (parent == null) 0 else parent.level + 1), "level/parent mismatch")
    val b = buckets(level)
    val n = new MsNode[P](payload, level, parent, if (b == null) 0L else keys(level).of(path))
    if (parent != null) {
      if (parent.kids == null) parent.kids = mutable.LinkedHashSet()
      parent.kids += n
    }
    val t = tails(level)
    n.prev = t.prev; n.next = t
    t.prev.next = n; t.prev = n
    if (b != null) {
      val h = b.getOrNull(n.key)
      if (h == null) { n.keyPrev = n; b.update(n.key, n) }
      else { h.keyPrev.keyNext = n; n.keyPrev = h.keyPrev; h.keyPrev = n }
    }
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

  /** The oldest live node of `level`: its list is in insertion order. */
  def oldest(level: Int): Option[MsNode[P]] = Option(heads(level).next).filter(_ ne tails(level))

  /** A node's match as a stored match of this tree's store. */
  def stored(n: MsNode[P]): StoredMatch = StoredMatch(n, n.path.asInstanceOf[Vector[StreamEdge]])

  /** The live nodes of keyed `level` whose key vertex is `v`, in insertion
    * order, as stored matches.
    */
  def probe(level: Int, v: Long): Vector[StoredMatch] = {
    var n = buckets(level).getOrNull(v)
    if (n == null) Vector.empty
    else {
      val b = Vector.newBuilder[StoredMatch]
      while (n != null) { b += stored(n); n = n.keyNext }
      b.result()
    }
  }

  /** Partial removal (§V-C, Fig 14): unlink from the level list, the key
    * bucket and the parent's child set; keep the upward pointer and the
    * node's own child set so concurrent earlier readers can still backtrack
    * and the deleter can still find the node's descendants.
    */
  def partialRemove(n: MsNode[P]): Unit = {
    if (!n.alive) return
    n.alive = false
    n.prev.next = n.next
    n.next.prev = n.prev
    val b = buckets(n.level)
    if (b != null) {
      val next = n.keyNext
      if (n.keyPrev.keyNext ne n) { // n heads its bucket
        if (next == null) b -= n.key
        else { next.keyPrev = n.keyPrev; b.update(n.key, next) }
      } else {
        n.keyPrev.keyNext = next
        if (next != null) next.keyPrev = n.keyPrev
        else b(n.key).keyPrev = n.keyPrev // n was the tail
      }
      n.keyPrev = null; n.keyNext = null
    }
    if (n.parent != null) n.parent.kids -= n
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
      removedPrev.foreach(n => if (n.kids != null) targets ++= n.kids)
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
