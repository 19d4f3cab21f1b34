package repro.core.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.core.StreamEdge

/** A node of an MS-tree (Definition 10).
  *
  * Besides child links, a node keeps a link to its parent and sits in a
  * per-level doubly linked list — the extra links the paper adds over a
  * plain trie (§IV-C). On a keyed level it also sits in the bucket of its
  * key vertex, which it does not store: [[at]] reads it again from the
  * path. An `L_0` node, whose payload is a subquery leaf, sits in that
  * leaf's referrer ring (`refPrev`/`refNext`, with the leaf as the ring's
  * sentinel), so an expiry finds an `L_0` level's dead nodes from the
  * leaves that died. It stores no path: [[path]] backtracks its match.
  * `alive` is volatile because the L0 tree reads leaf liveness across lock
  * domains (§V-C); `payload`, `level` and `parent` are immutable (see the
  * [[MsTree]] thread-safety contract). Its eleven fields take 56 bytes with
  * compressed references (JDK 17). Keep them there: a node 8 bytes larger
  * raised the retained state of the dense and chain benchmark workloads by
  * about 7%, which is why the key vertex is read again, not stored.
  */
final class MsNode[P](val payload: P, val level: Int, val parent: MsNode[P]) {
  @volatile var alive: Boolean = true
  var prev: MsNode[P]          = _
  var next: MsNode[P]          = _
  // Bucket links: `keyNext` is null at the bucket's tail, and the head's
  // `keyPrev` is the tail, so appending needs no tail map.
  private[store] var keyPrev: MsNode[P] = _
  private[store] var keyNext: MsNode[P] = _
  // Ring links: null on a leaf until its first referrer, then the ring's ends.
  private[store] var refPrev: MsNode[_] = _
  private[store] var refNext: MsNode[_] = _
  // Allocated with the first child, so leaves never hold one.
  private[store] var kids: mutable.LinkedHashSet[MsNode[P]] = _

  /** The node's children; empty for a leaf. */
  def children: collection.Set[MsNode[P]] = if (kids == null) Set.empty else kids

  /** This node's match, read by backtracking (§IV-A): the payloads along
    * root→this, where a payload that is itself a node — an `L_0` reference
    * to a subquery leaf — stands for that node's match.
    */
  def path: Vector[Any] = { val a = new Array[AnyRef](width); fill(a, 0); Vector.from(ArraySeq.unsafeWrapArray(a)) }

  /** `path(pos)`, read by walking up without building the path. */
  private[store] def at(pos: Int): Any = at(pos, width)

  /** On a subquery leaf: the `L_0` nodes whose payload it is, its ring. */
  private[store] def referrers[R]: Iterator[MsNode[R]] = new Iterator[MsNode[R]] {
    private var r = refNext
    def hasNext: Boolean = r != null && (r ne MsNode.this)
    def next(): MsNode[R] = { val n = r.asInstanceOf[MsNode[R]]; r = r.refNext; n }
  }

  /** The width of this node's own payload in [[path]]. */
  private def own: Int = payload match { case leaf: MsNode[_] => leaf.width; case _ => 1 }

  private def width: Int = own + (if (parent == null) 0 else parent.width)

  /** `path(pos)`, given that this node's path ends before `end`. */
  private def at(pos: Int, end: Int): Any = {
    val start = end - own
    if (pos < start) parent.at(pos, start)
    else payload match { case leaf: MsNode[_] => leaf.at(pos - start); case p => p }
  }

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
  * each key vertex to an intrusive bucket of that level's live nodes. A
  * tree whose payloads are another tree's leaves (`L_0`) links each node
  * into its leaf's referrer ring.
  *
  * Thread-safety contract (matches the paper's item-lock granularity):
  *   - the level-`l` linked list and buckets, the `children` sets of
  *     level-`l-1` nodes, and the `alive` flags of level-`l` nodes are only
  *     mutated while the caller holds the X lock of expansion-list item
  *     `l+1`; [[probe]] only reads them;
  *   - the referrer rings of the leaves that level `l` refers to are only
  *     mutated, and read by [[MsNode.referrers]], under that same X lock;
  *     removing a leaf from its own tree leaves its ring alone;
  *   - `payload`, `level` and `parent` are immutable, so
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
      heads(l) = new MsNode[P](null.asInstanceOf[P], -1, null)
      tails(l) = new MsNode[P](null.asInstanceOf[P], -1, null)
      heads(l).next = tails(l); tails(l).prev = heads(l)
      if (keys(l) != null) buckets(l) = new mutable.LongMap
      l += 1
    }
  }

  private val counts = new java.util.concurrent.atomic.AtomicLongArray(numLevels)

  /** Append a node at `level` (root children when `parent == null`);
    * `path` is its root→node edges, from which a keyed level reads the key.
    * A payload that is a node gets the new node as its last referrer.
    */
  def add(parent: MsNode[P], payload: P, level: Int, path: IndexedSeq[StreamEdge]): MsNode[P] = {
    require(level == (if (parent == null) 0 else parent.level + 1), "level/parent mismatch")
    val n = new MsNode[P](payload, level, parent)
    if (parent != null) {
      if (parent.kids == null) parent.kids = mutable.LinkedHashSet()
      parent.kids += n
    }
    val t = tails(level)
    n.prev = t.prev; n.next = t
    t.prev.next = n; t.prev = n
    val b = buckets(level)
    if (b != null) {
      val key = keys(level).of(path)
      val h   = b.getOrNull(key)
      if (h == null) { n.keyPrev = n; b.update(key, n) }
      else { h.keyPrev.keyNext = n; n.keyPrev = h.keyPrev; h.keyPrev = n }
    }
    payload match {
      case leaf: MsNode[_] =>
        if (leaf.refNext == null) { leaf.refNext = leaf; leaf.refPrev = leaf }
        n.refNext = leaf; n.refPrev = leaf.refPrev
        leaf.refPrev.refNext = n; leaf.refPrev = n
      case _ =>
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

  /** The key vertex of `n`, on a keyed level, read from its path. */
  private def keyOf(n: MsNode[P]): Long = {
    val k = keys(n.level)
    k.vertex(n.at(k.pos).asInstanceOf[StreamEdge])
  }

  /** Partial removal (§V-C, Fig 14): unlink from the level list, the key
    * bucket, the parent's child set and, for an `L_0` node, its leaf's
    * ring; keep the upward pointer and the node's own child set so
    * concurrent earlier readers can still backtrack and the deleter can
    * still find the node's descendants. A leaf keeps its own ring.
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
        if (next == null) b -= keyOf(n)
        else { next.keyPrev = n.keyPrev; b.update(keyOf(n), next) }
      } else {
        n.keyPrev.keyNext = next
        if (next != null) next.keyPrev = n.keyPrev
        else b(keyOf(n)).keyPrev = n.keyPrev // n was the tail
      }
      n.keyPrev = null; n.keyNext = null
    }
    if (n.payload.isInstanceOf[MsNode[_]]) {
      n.refPrev.refNext = n.refNext; n.refNext.refPrev = n.refPrev
      n.refPrev = null; n.refNext = null
    }
    if (n.parent != null) n.parent.kids -= n
    counts.decrementAndGet(n.level)
  }

  /** Algorithm 2's level sweep: at each level, partially remove the live
    * children of the nodes removed one level up, plus the live `seeds` of
    * that level. The caller steps through the levels in order; the cursor's
    * [[Expiry.removed]] holds the nodes removed at the last level it swept.
    */
  def sweep(seeds: Int => IterableOnce[MsNode[P]]): Expiry = new Expiry {
    private var removedPrev: List[MsNode[P]] = Nil

    override def removed: Iterable[AnyRef] = removedPrev

    override def processLevel(level: Int): Int = {
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
