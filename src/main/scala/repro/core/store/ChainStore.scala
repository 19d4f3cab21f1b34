package repro.core.store

import repro.core.StreamEdge

/** A stored (partial) match handed out by a store: `ref` identifies the
  * stored representation (MS-tree node / independent record) and `edges`
  * is the materialized sequential form, aligned with the item's query-edge
  * sequence.
  */
final case class StoredMatch(ref: AnyRef, edges: IndexedSeq[StreamEdge])

/** Storage for one expansion list `L = {L^1..L^k}` over a TC-subquery's
  * timing sequence (§III-A3). Items are 0-based here: item `j` holds the
  * matches of the prerequisite subquery of the `(j+1)`-th sequence edge.
  *
  * Implementations: [[MsChainStore]] (MS-tree, §IV) and [[IndStore]]
  * (independent match storage — the Timing-IND ablation).
  */
trait ChainStore {

  /** Number of items (= the length of the timing sequence). */
  def numLevels: Int

  /** Ω(L^{j+1}): live matches of item `j` (materialized snapshot). */
  def read(j: Int): Vector[StoredMatch]

  /** Insert σ as a new match of item 0 (Theorem 2 case 1). */
  def insertRoot(sigma: StreamEdge): StoredMatch

  /** Extend `parent` (a match of item `j-1`) with σ into item `j`
    * (Theorem 2 case 2); O(1) — no path re-traversal (§IV-B).
    */
  def extend(j: Int, parent: StoredMatch, sigma: StreamEdge): StoredMatch

  /** Start an expiry pass for σ, which matches the sequence at the given
    * 0-based positions. The caller must invoke `processLevel(j)` for
    * j = 0..k-1 in order (each under the item's X lock when concurrent).
    */
  def newExpiry(sigma: StreamEdge, triggers: Set[Int]): Expiry

  /** Number of live matches in item `j`. */
  def size(j: Int): Int

  /** Space in cells (see DESIGN.md §5, space accounting). */
  def spaceCells: Long
}

/** Level-stepped expiry cursor over an expansion list (Algorithm 2,
  * restructured so each level's work happens under that item's lock —
  * required by §V-C).
  */
trait Expiry {

  /** Remove expired matches at level `j`; returns how many were removed. */
  def processLevel(j: Int): Int
}
