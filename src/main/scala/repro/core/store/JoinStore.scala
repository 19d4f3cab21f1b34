package repro.core.store

import repro.core.StreamEdge

/** Storage for the expansion list `L_0` over a decomposition
  * `{Q^1..Q^k}` (§III-B). Item `i` (0-based) holds the joined matches of
  * subqueries `0..i`; a stored match's `edges` are the concatenation of
  * the subqueries' timing sequences (`Decomposition.prefixEdges`).
  *
  * Implementations: [[MsJoinStore]] (MS-tree, §IV) and [[IndStore]].
  */
trait JoinStore {

  /** Number of items (= k, the decomposition size). */
  def numLevels: Int

  /** Ω(L_0^{i+1}): live joined matches of subqueries 0..i. */
  def read(i: Int): Vector[StoredMatch]

  /** Insert a complete match of subquery 0 into item 0. */
  def insertRoot(sub: StoredMatch): StoredMatch

  /** Extend a match of item `i-1` with a complete match of subquery `i`. */
  def extend(i: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch

  /** Start an expiry pass for σ that expired complete matches of subquery
    * `subIdx`; the caller invokes `processLevel(i)` for i = subIdx..k-1 in
    * order (each under the item's X lock when concurrent).
    */
  def newExpiry(sigma: StreamEdge, subIdx: Int): Expiry

  def size(i: Int): Int
  def spaceCells: Long
}

/** MS-tree-backed `L_0`: node payloads are *references* to the leaf nodes
  * of the subquery MS-trees (§IV-A's space optimisation — a subquery match
  * is never re-stored). Expired entries are found by scanning item
  * `subIdx` for dead leaf references, as Algorithm 2 prescribes.
  */
final class MsJoinStore(override val numLevels: Int) extends JoinStore {

  private val tree = new MsTree[MsNode[StreamEdge]](numLevels)

  private def leaf(sub: StoredMatch): MsNode[StreamEdge] = sub.ref.asInstanceOf[MsNode[StreamEdge]]

  override def read(i: Int): Vector[StoredMatch] =
    tree.levelNodes(i).map(n => StoredMatch(n, n.cachedPath.asInstanceOf[IndexedSeq[StreamEdge]]))

  override def insertRoot(sub: StoredMatch): StoredMatch = {
    val n = tree.add(null, leaf(sub), 0)
    n.cachedPath = sub.edges
    StoredMatch(n, sub.edges)
  }

  override def extend(i: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val p     = parent.ref.asInstanceOf[MsNode[MsNode[StreamEdge]]]
    val n     = tree.add(p, leaf(sub), i)
    val edges = parent.edges ++ sub.edges
    n.cachedPath = edges
    StoredMatch(n, edges)
  }

  override def newExpiry(sigma: StreamEdge, subIdx: Int): Expiry =
    tree.sweep(i => if (i == subIdx) tree.levelNodes(i).filterNot(_.payload.alive) else Nil)

  override def size(i: Int): Int = tree.levelSize(i)

  override def spaceCells: Long = tree.liveCount
}
