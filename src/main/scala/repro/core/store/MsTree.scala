package repro.core.store

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.core.StreamEdge

/** A node of an MS-tree (Definition 10).
  *
  * Besides child links, a node keeps a link to its parent and sits in a
  * per-level doubly linked list — the extra links the paper adds over a
  * plain trie (§IV-C). Its children form an intrusive list: `firstKid`
  * heads it and the children are linked by `sibPrev`/`sibNext` in insertion
  * order (the first-child/next-sibling form of a trie). On a keyed level a
  * node also sits in the bucket of its key vertex, which it does not store:
  * [[at]] reads it again from the path. Its payload is an edge in a chain
  * list and a subquery leaf in `L_0`. An `L_0` node sits in its leaf's
  * referrer ring (`refPrev`/`refNext`, with the leaf as the ring's
  * sentinel), so an expiry finds an `L_0` level's dead nodes from the
  * leaves that died. It stores no path: [[path]] backtracks its match.
  *
  * `payload` and `parent` are immutable (see the [[MsTree]] thread-safety
  * contract). The node's `level` and `alive` are derived, not stored:
  * `level` is its depth, found by walking `parent`, and a node is alive
  * while it has a `prev` link, which its partial removal nulls. No reader
  * in another lock domain (§V-C) needs liveness: its only reader is
  * `MsTree.partialRemove`'s idempotence check, under the level's X lock,
  * so it is a plain read, not a volatile one.
  * The node's eleven reference fields take 56 bytes with compressed
  * references (JDK 17). Keep them there: a node 8 bytes larger raised the
  * retained state of the dense and chain benchmark workloads by about 7%,
  * which is why the key vertex is read again, not stored.
  */
final class MsNode(val payload: AnyRef, val parent: MsNode) {
  var prev: MsNode = _
  var next: MsNode = _
  // Bucket links: `keyNext` is null at the bucket's tail, and the head's
  // `keyPrev` is the tail, so appending needs no tail map.
  private[store] var keyPrev: MsNode = _
  private[store] var keyNext: MsNode = _
  // Ring links: null on a leaf until its first referrer, then the ring's ends.
  private[store] var refPrev: MsNode = _
  private[store] var refNext: MsNode = _
  // Child list: null on a leaf. Linked as a bucket is: `sibNext` is null at
  // the tail, and the head's `sibPrev` is the tail.
  private[store] var firstKid: MsNode = _
  private[store] var sibPrev: MsNode  = _
  private[store] var sibNext: MsNode  = _

  /** The node's depth: 0 for a root. */
  def level: Int = {
    var l = 0
    var p = parent
    while (p != null) { l += 1; p = p.parent }
    l
  }

  /** False once the node is partially removed. */
  def alive: Boolean = prev != null

  /** The node's children, in insertion order; empty for a leaf. */
  def children: Seq[MsNode] = {
    val b = Vector.newBuilder[MsNode]
    var k = firstKid
    while (k != null) { b += k; k = k.sibNext }
    b.result()
  }

  /** This node's match, read by backtracking (§IV-A): the payloads along
    * root→this, where a payload that is itself a node — an `L_0` reference
    * to a subquery leaf — stands for that node's match.
    */
  def path: Vector[AnyRef] = { val a = new Array[AnyRef](width); fill(a, 0); Vector.from(ArraySeq.unsafeWrapArray(a)) }

  /** `path(pos)`, read by walking up without building the path. */
  private[store] def at(pos: Int): AnyRef = at(pos, width)

  /** On a subquery leaf: the `L_0` nodes whose payload it is, its ring. */
  private[store] def referrers: Iterator[MsNode] = new Iterator[MsNode] {
    private var r = refNext
    def hasNext: Boolean = r != null && (r ne MsNode.this)
    def next(): MsNode = { val n = r; r = r.refNext; n }
  }

  /** The width of this node's own payload in [[path]]. */
  private def own: Int = payload match { case leaf: MsNode => leaf.width; case _ => 1 }

  private def width: Int = own + (if (parent == null) 0 else parent.width)

  /** `path(pos)`, given that this node's path ends before `end`. */
  private def at(pos: Int, end: Int): AnyRef = {
    val start = end - own
    if (pos < start) parent.at(pos, start)
    else payload match { case leaf: MsNode => leaf.at(pos - start); case p => p }
  }

  /** Writes [[path]] into `a` from `from`; returns the index after it. */
  private def fill(a: Array[AnyRef], from: Int): Int = {
    val i = if (parent == null) from else parent.fill(a, from)
    payload match { case leaf: MsNode => leaf.fill(a, i); case p => a(i) = p; i + 1 }
  }
}

/** Match-store tree (§IV), the MS-tree [[MatchStore]] of every expansion
  * list: a trie variant whose level-`i` nodes are the matches of item
  * `L^{i+1}`, with per-level doubly linked lists for horizontal access and
  * *partial removal* for concurrent safety. A level with a key
  * (`keys(level)`, `null` for none) also keeps a map from each key vertex to
  * an intrusive bucket of that level's live nodes.
  *
  * A node's payload is the `ref` of the sub-match it extends its parent by:
  * in a TC-subquery's list the edge σ of the one-edge match {σ}, in `L_0` a
  * leaf of the subquery's tree (§IV-A's space optimisation — a subquery
  * match is never re-stored; a match backtracks through it). An `L_0` node
  * is linked into its leaf's referrer ring.
  *
  * Expiry needs no edge index (§IV-B "Deleting expired partial matches").
  * A pass from level `from` seeds that level with its oldest node if that
  * node's payload is σ, and with the live referrers of the `dead` leaves;
  * each later level loses the children of the nodes removed above it. In a
  * chain list the timing sequence is a total order, so a match's first edge
  * is its oldest, and an expired σ — the oldest live edge — can only be the
  * payload of a level-0 node. Level 0 is appended in arrival order and
  * every older node left with its own edge, so σ's node, if it has one,
  * heads level 0. An `L_0` pass starts from the leaves the chain's pass
  * removed. Each half of the rule finds nothing in the other kind of tree,
  * and no level is scanned.
  *
  * Thread-safety contract (matches the paper's item-lock granularity):
  *   - the level-`l` linked list and buckets, the sibling links of
  *     level-`l` nodes, the `firstKid` of level-`l-1` nodes, and the `prev`
  *     link whose nulling ends a level-`l` node's life are only mutated
  *     while the caller holds the X lock of expansion-list item `l+1`;
  *     [[probe]] only reads the buckets, and only an expiry of level `l`
  *     walks those child lists;
  *   - the referrer rings of the leaves that level `l` refers to are only
  *     mutated, and read by [[MsNode.referrers]], under that same X lock;
  *     removing a leaf from its own tree leaves its ring alone;
  *   - `payload` and `parent` are immutable, and so is the depth they
  *     give a node (`level`), so
  *     backtracking a path upward is always safe, even through partially
  *     removed nodes — exactly the property Theorem 6 relies on.
  */
final class MsTree(keys: Array[VertexKey]) extends MatchStore {

  override val numLevels: Int = keys.length

  // Sentinel heads/tails so unlinking needs no special cases, and per keyed
  // level the map from key vertex to bucket head (null for an unkeyed level).
  private val heads   = new Array[MsNode](numLevels)
  private val tails   = new Array[MsNode](numLevels)
  private val buckets = new Array[mutable.LongMap[MsNode]](numLevels)
  locally {
    var l = 0
    while (l < numLevels) {
      heads(l) = new MsNode(null, null)
      tails(l) = new MsNode(null, null)
      heads(l).next = tails(l); tails(l).prev = heads(l)
      if (keys(l) != null) buckets(l) = new mutable.LongMap
      l += 1
    }
  }

  private val counts = new java.util.concurrent.atomic.AtomicLongArray(numLevels)

  /** Append a node at `level` (root children when `parent == null`);
    * `path` is its root→node edges, from which a keyed level reads the key.
    * The new node is its parent's last child, and a payload that is a node
    * gets it as its last referrer.
    */
  private[store] def add(parent: MsNode, payload: AnyRef, level: Int, path: IndexedSeq[StreamEdge]): MsNode = {
    require(level == (if (parent == null) 0 else parent.level + 1), "level/parent mismatch")
    val n = new MsNode(payload, parent)
    if (parent != null) {
      val h = parent.firstKid
      if (h == null) { n.sibPrev = n; parent.firstKid = n }
      else { h.sibPrev.sibNext = n; n.sibPrev = h.sibPrev; h.sibPrev = n }
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
      case leaf: MsNode =>
        if (leaf.refNext == null) { leaf.refNext = leaf; leaf.refPrev = leaf }
        n.refNext = leaf; n.refPrev = leaf.refPrev
        leaf.refPrev.refNext = n; leaf.refPrev = n
      case _ =>
    }
    counts.incrementAndGet(level)
    n
  }

  override def insertRoot(sub: StoredMatch): StoredMatch =
    StoredMatch(add(null, sub.ref, 0, sub.edges), sub.edges)

  /** A one-edge `sub` is appended with `:+`, which builds no closure. */
  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val path = if (sub.edges.length == 1) parent.edges :+ sub.edges(0) else parent.edges ++ sub.edges
    StoredMatch(add(parent.ref.asInstanceOf[MsNode], sub.ref, level, path), path)
  }

  /** Snapshot of the live nodes at `level` (the doubly-linked-list walk). */
  private[store] def levelNodes(level: Int): Vector[MsNode] = {
    val b = Vector.newBuilder[MsNode]
    var n = heads(level).next
    while (n ne tails(level)) { b += n; n = n.next }
    b.result()
  }

  /** A node's match as a stored match of this tree. */
  private def stored(n: MsNode): StoredMatch = StoredMatch(n, n.path.asInstanceOf[Vector[StreamEdge]])

  override def read(level: Int): Vector[StoredMatch] = levelNodes(level).map(stored)

  /** The live nodes of keyed `level` whose key vertex is `v`, in insertion
    * order, as stored matches.
    */
  override def probe(level: Int, v: Long): Vector[StoredMatch] = {
    var n = buckets(level).getOrNull(v)
    if (n == null) Vector.empty
    else {
      val b = Vector.newBuilder[StoredMatch]
      while (n != null) { b += stored(n); n = n.keyNext }
      b.result()
    }
  }

  /** The key vertex of `n`, on keyed `level`, read from its path. */
  private def keyOf(n: MsNode, level: Int): Long = {
    val k = keys(level)
    k.vertex(n.at(k.pos).asInstanceOf[StreamEdge])
  }

  /** Partial removal (§V-C, Fig 14) of `n` from `level`: unlink it from the
    * level list, the key bucket, the parent's child list and, for an `L_0`
    * node, its leaf's ring; keep the upward pointer and the node's own
    * child list so concurrent earlier readers can still backtrack and the
    * deleter can still find the node's descendants. A leaf keeps its own
    * ring. Nulling `prev` marks the node dead, so a second call does
    * nothing.
    */
  private[store] def partialRemove(n: MsNode, level: Int): Unit = {
    if (!n.alive) return
    n.prev.next = n.next
    n.next.prev = n.prev
    n.prev = null
    val b = buckets(level)
    if (b != null) {
      val next = n.keyNext
      if (n.keyPrev.keyNext ne n) { // n heads its bucket
        if (next == null) b -= keyOf(n, level)
        else { next.keyPrev = n.keyPrev; b.update(keyOf(n, level), next) }
      } else {
        n.keyPrev.keyNext = next
        if (next != null) next.keyPrev = n.keyPrev
        else b(keyOf(n, level)).keyPrev = n.keyPrev // n was the tail
      }
      n.keyPrev = null; n.keyNext = null
    }
    if (n.payload.isInstanceOf[MsNode]) {
      n.refPrev.refNext = n.refNext; n.refNext.refPrev = n.refPrev
      n.refPrev = null; n.refNext = null
    }
    val p = n.parent
    if (p != null) {
      val next = n.sibNext
      if (p.firstKid eq n) {
        p.firstKid = next
        if (next != null) next.sibPrev = n.sibPrev
      } else {
        n.sibPrev.sibNext = next
        if (next != null) next.sibPrev = n.sibPrev
        else p.firstKid.sibPrev = n.sibPrev // n was the tail
      }
      n.sibPrev = null; n.sibNext = null
    }
    counts.decrementAndGet(level)
  }

  /** Algorithm 2's level sweep: at each level, partially remove the live
    * children of the nodes removed one level up and, at level `from`, the
    * seeds of the class comment. The cursor's [[Expiry.removed]] holds the
    * nodes removed at the last level it swept.
    */
  override def newExpiry(sigma: StreamEdge, from: Int, dead: Iterable[AnyRef]): Expiry = new Expiry {
    private var last: List[MsNode] = Nil

    override def removed: Iterable[AnyRef] = last

    override def processLevel(level: Int): Int = {
      // Child lists and rings hold only live nodes. Collect before
      // removing: a removal edits the child list or ring being walked. A
      // level with nothing to remove allocates nothing.
      var hit: List[MsNode] = Nil
      var up                = last
      while (up.nonEmpty) {
        var k = up.head.firstKid
        while (k != null) { hit = k :: hit; k = k.sibNext }
        up = up.tail
      }
      if (level == from) {
        val h = heads(level).next
        h.payload match {
          case e: StreamEdge if e.id == sigma.id => hit = h :: hit
          case _                                 =>
        }
        val d = dead.iterator
        while (d.hasNext) {
          val it = d.next().asInstanceOf[MsNode].referrers
          while (it.hasNext) hit = it.next() :: hit
        }
      }
      var h = hit
      while (h.nonEmpty) { partialRemove(h.head, level); h = h.tail }
      last = hit
      hit.length
    }
  }

  override def size(level: Int): Int = counts.get(level).toInt

  /** Live node count = MS-tree space in "cells" (§VII space metric). */
  override def spaceCells: Long = (0 until numLevels).map(counts.get).sum
}
