package repro.core.store

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StreamEdge

/** Both chain-list MatchStore implementations must expose identical
  * logical contents; MS-tree must use fewer (or equal) cells thanks to
  * prefix sharing.
  */
class StoreSpec extends AnyFunSuite {

  private def edge(id: Long, ts: Long): StreamEdge =
    StreamEdge(id, id * 2, "A", id * 2 + 1, "B", "-", ts)

  /** The one-edge sub-match a subquery's list extends by. */
  private def one(e: StreamEdge): StoredMatch = StoredMatch(e, Vector(e))

  private def mkStores(numLevels: Int): Seq[MatchStore] =
    Seq(new MsChainStore(numLevels), new IndStore(numLevels))

  private def contents(s: MatchStore, j: Int): Set[Seq[Long]] =
    s.read(j).map(_.edges.map(_.id).toSeq).toSet

  test("insertRoot / extend / read round-trip on both backends") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      s.insertRoot(one(edge(2, 2)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      s.extend(2, m1, one(edge(9, 9)))
      assert(contents(s, 0) == Set(Seq(1L), Seq(2L)), s.getClass.getSimpleName)
      assert(contents(s, 1) == Set(Seq(1L, 3L)))
      assert(contents(s, 2) == Set(Seq(1L, 3L, 4L), Seq(1L, 3L, 9L)))
      assert(s.size(0) == 2 && s.size(1) == 1 && s.size(2) == 2)
    }
  }

  test("MS-tree prefix sharing beats independent storage on cells") {
    val Seq(ms, ind) = mkStores(3)
    Seq(ms, ind).foreach { s =>
      val r = s.insertRoot(one(edge(1, 1)))
      val m = s.extend(1, r, one(edge(3, 3)))
      (10 to 30).foreach(i => s.extend(2, m, one(edge(i, i))))
    }
    // MS: 2 + 21 nodes; IND: 1 + 2 + 21*3 cells
    assert(ms.spaceCells == 23)
    assert(ind.spaceCells == 66)
  }

  test("expiry removes matches containing the edge, cascading to descendants") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      s.insertRoot(one(edge(2, 2)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      s.extend(2, m1, one(edge(9, 9)))
      val ex = s.newExpiry(edge(1, 1), from = 0)
      val removedPerLevel = (0 until 3).map(ex.processLevel)
      assert(removedPerLevel == Seq(1, 1, 2), s.getClass.getSimpleName)
      assert(contents(s, 0) == Set(Seq(2L)))
      assert(contents(s, 1).isEmpty && contents(s, 2).isEmpty)
    }
  }

  test("expiry triggered at a middle level") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      val ex = s.newExpiry(edge(3, 3), from = 0)
      assert((0 until 3).map(ex.processLevel) == Seq(0, 1, 1))
      assert(contents(s, 0) == Set(Seq(1L)))
      assert(contents(s, 1).isEmpty)
    }
  }

  test("one expiry pass removes an edge found at two levels") {
    mkStores(3).foreach { s =>
      // edge 5 is the root of one path and the level-2 edge of another
      val a = s.extend(1, s.insertRoot(one(edge(5, 5))), one(edge(3, 3)))
      s.extend(2, a, one(edge(4, 4)))
      val b = s.extend(1, s.insertRoot(one(edge(1, 1))), one(edge(2, 2)))
      s.extend(2, b, one(edge(5, 5)))
      val ex = s.newExpiry(edge(5, 5), from = 0)
      assert((0 until 3).map(ex.processLevel) == Seq(1, 1, 2), s.getClass.getSimpleName)
      assert(contents(s, 0) == Set(Seq(1L)))
      assert(contents(s, 1) == Set(Seq(1L, 2L)))
      assert(contents(s, 2).isEmpty)
    }
  }

  test("expiry of an absent edge removes nothing") {
    mkStores(2).foreach { s =>
      s.insertRoot(one(edge(1, 1)))
      val ex = s.newExpiry(edge(99, 99), from = 0)
      assert((0 until 2).map(ex.processLevel).sum == 0)
      assert(s.size(0) == 1)
    }
  }

  test("join stores mirror chain contents (Ms references, Ind materializes)") {
    val chains = IndexedSeq[MatchStore](new MsChainStore(2), new MsChainStore(1))
    val js     = new MsJoinStore(2)
    val r      = chains(0).insertRoot(one(edge(1, 1)))
    val c0     = chains(0).extend(1, r, one(edge(3, 3)))
    val c1     = chains(1).insertRoot(one(edge(7, 7)))
    val l0     = js.insertRoot(c0)
    js.extend(1, l0, c1)
    assert(js.read(0).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L)))
    assert(js.read(1).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L, 7L)))
    // Ms join store costs 1 cell per node (references, not copies)
    assert(js.spaceCells == 2)

    val ind  = new IndStore(2)
    val il0  = ind.insertRoot(c0)
    ind.extend(1, il0, c1)
    assert(ind.read(1).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L, 7L)))
    assert(ind.spaceCells == 5) // 2 + 3 materialized cells
  }

  test("MsJoinStore expiry follows dead chain leaves") {
    val chains = IndexedSeq[MatchStore](new MsChainStore(1), new MsChainStore(1))
    val js     = new MsJoinStore(2)
    val c0a    = chains(0).insertRoot(one(edge(1, 1)))
    val c0b    = chains(0).insertRoot(one(edge(2, 2)))
    val c1     = chains(1).insertRoot(one(edge(7, 7)))
    js.extend(1, js.insertRoot(c0a), c1)
    js.extend(1, js.insertRoot(c0b), c1)
    // expire edge 1 in chain 0
    val ex = chains(0).newExpiry(edge(1, 1), from = 0)
    assert(ex.processLevel(0) == 1)
    val jex = js.newExpiry(edge(1, 1), from = 0)
    assert(jex.processLevel(0) == 1)
    assert(jex.processLevel(1) == 1)
    assert(js.read(1).map(_.edges.map(_.id)) == Vector(Vector(2L, 7L)))
  }

  test("IndStore expiry scans by membership") {
    val ind = new IndStore(2)
    val a   = StoredMatch(null, Vector(edge(1, 1)))
    val b   = StoredMatch(null, Vector(edge(2, 2)))
    val c   = StoredMatch(null, Vector(edge(7, 7)))
    ind.extend(1, ind.insertRoot(a), c)
    ind.extend(1, ind.insertRoot(b), c)
    val jex = ind.newExpiry(edge(1, 1), from = 0)
    assert(jex.processLevel(0) == 1)
    assert(jex.processLevel(1) == 1)
    assert(ind.read(1).map(_.edges.map(_.id)) == Vector(Vector(2L, 7L)))
  }

  test("paper MS-tree example sizes (Fig 10)") {
    // Matches {σ1}, {σ1σ3}, {σ1σ3σ4}, {σ1σ3σ9} stored in 4 nodes; the
    // independent layout needs 1+2+3+3 = 9 cells.
    val Seq(ms, ind) = mkStores(3)
    Seq(ms, ind).foreach { s =>
      val r = s.insertRoot(one(edge(1, 1)))
      val m = s.extend(1, r, one(edge(3, 3)))
      s.extend(2, m, one(edge(4, 4)))
      s.extend(2, m, one(edge(9, 9)))
    }
    assert(ms.spaceCells == 4)
    assert(ind.spaceCells == 9)
  }
}
