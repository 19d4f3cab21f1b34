package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MatchingSpec extends AnyFunSuite {
  import Fixtures._

  private val emb = paperEmbedding()
  // emb: ε6, ε3, ε5, ε1, ε4, ε2 in arrival order
  private val m: Matching.Match =
    Map(6 -> emb(0), 3 -> emb(1), 5 -> emb(2), 1 -> emb(3), 4 -> emb(4), 2 -> emb(5))

  test("full paper embedding is a valid time-constrained match") {
    assert(Matching.isValidPartial(paperQ, m))
    assert(Matching.vertexBinding(paperQ, m).contains(
      Map(0 -> va, 1 -> vb, 2 -> vc, 3 -> vd, 4 -> ve, 5 -> vf)))
  }

  test("any sub-map of a valid match is a valid partial match") {
    m.keySet.subsets().filter(_.nonEmpty).foreach { s =>
      assert(Matching.isValidPartial(paperQ, m.view.filterKeys(s).toMap), s"subset $s")
    }
  }

  test("timing violation detected") {
    // swap timestamps of ε3 and ε1 matches: ε3 must precede ε1
    val bad = m + (3 -> emb(1).copy(ts = 100)) // now ε3 after ε1
    assert(!Matching.timingOk(paperQ, bad))
    assert(!Matching.isValidPartial(paperQ, bad))
  }

  test("vertex-consistency violation detected") {
    // ε5 must start at the vertex ε6 ends at (b); rebind it elsewhere
    val bad = m + (5 -> e(vd, vc, 3).copy(srcLabel = "B"))
    assert(Matching.vertexBinding(paperQ, bad).isEmpty)
  }

  test("injectivity violation detected") {
    // map query vertex c to the same data vertex as b
    val bad = m + (5 -> e(vb, vb, 3)) // b→b self-ish: src=dst=vb
    assert(Matching.vertexBinding(paperQ, bad).isEmpty)
  }

  test("compatible merges disjoint valid sides (the ⋈ᵀ join)") {
    val left  = m.view.filterKeys(Set(6, 5, 4)).toMap
    val right = m.view.filterKeys(Set(3, 1, 2)).toMap
    assert(Matching.compatible(paperQ, left, right).contains(m))
  }

  test("compatible rejects cross-side timing violations") {
    val left  = m.view.filterKeys(Set(6, 5, 4)).toMap
    val right = Map(
      3 -> emb(1).copy(ts = 50),
      1 -> emb(3).copy(ts = 51),
      2 -> emb(5).copy(ts = 2),  // ε2 must come after ε1
    )
    assert(Matching.compatible(paperQ, left, right).isEmpty)
  }

  test("compatible rejects overlapping query-edge sets") {
    intercept[IllegalArgumentException] {
      Matching.compatible(paperQ, m.view.filterKeys(Set(6, 5)).toMap, m.view.filterKeys(Set(5)).toMap)
    }
  }

  test("compatible rejects the same data edge on both sides") {
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "B"), QueryVertex(2, "A")),
      Seq(QueryEdge(1, 0, 1, "x"), QueryEdge(2, 2, 1, "x")),
      Set.empty,
    )
    val shared = StreamEdge(9, 100, "A", 101, "B", "x", 5)
    assert(Matching.compatible(q, Map(1 -> shared), Map(2 -> shared)).isEmpty)
  }

  test("canExtend agrees with isValidPartial on random small cases") {
    val rnd = new scala.util.Random(7)
    val pool = (1 to 60).map { i =>
      e(Seq(va, vb, vc, vd, ve, vf)(rnd.nextInt(6)), Seq(va, vb, vc, vd, ve, vf)(rnd.nextInt(6)), i.toLong)
    }
    var checked = 0
    for (qeid <- paperQ.edges.map(_.id); cand <- pool) {
      val prefix = m.view.filterKeys(_ != qeid).toMap
      val ids    = prefix.keys.toIndexedSeq
      val es     = ids.map(prefix)
      val fast   = Matching.canExtend(paperQ, ids, es, qeid, cand)
      val slow   = Matching.isValidPartial(paperQ, prefix + (qeid -> cand))
      assert(fast == slow, s"qeid=$qeid cand=$cand")
      checked += 1
    }
    assert(checked > 300)
  }

  test("canExtend with checkTiming=false ignores only timing") {
    val prefix = m.view.filterKeys(Set(3)).toMap
    val late   = emb(3).copy(ts = 1) // ε1 match arriving before ε3's
    assert(!Matching.canExtend(paperQ, Vector(3), Vector(prefix(3)), 1, late))
    assert(Matching.canExtend(paperQ, Vector(3), Vector(prefix(3)), 1, late, checkTiming = false))
  }

  test("self-loop data edges never extend") {
    val loop = StreamEdge(99, va, "A", va, "A", "-", 50)
    assert(!Matching.canExtend(paperQ, Vector.empty, Vector.empty, 6, loop))
  }

  test("crossCompatible agrees with compatible on random splits") {
    val rnd = new scala.util.Random(13)
    var agreeChecked = 0
    (1 to 5000).foreach { _ =>
      // random assignments over a split of the paper query's edges
      val split  = paperQ.edges.map(_.id).partition(_ => rnd.nextBoolean())
      val (as, bs) = split
      if (as.nonEmpty && bs.nonEmpty) {
        // label-valid by construction: two candidate data vertices per
        // label, so consistency/injectivity/timing vary randomly
        val base = Map("A" -> va, "B" -> vb, "C" -> vc, "D" -> vd, "E" -> ve, "F" -> vf)
        var nid  = 9000L
        def randMatch(ids: Seq[Int]): Map[Int, StreamEdge] =
          ids.map { id =>
            val qe = paperQ.edgeById(id)
            val (ls, ld) = (paperQ.label(qe.src), paperQ.label(qe.dst))
            val s = base(ls) + (if (rnd.nextBoolean()) 0 else 100)
            val d = base(ld) + (if (rnd.nextBoolean()) 0 else 100)
            nid += 1
            id -> StreamEdge(nid, s, ls, d, ld, "-", rnd.nextInt(50).toLong)
          }.toMap
        val (ma, mb) = (randMatch(as), randMatch(bs))
        // only compare when both sides are individually valid (the
        // crossCompatible contract)
        if (Matching.isValidPartial(paperQ, ma) && Matching.isValidPartial(paperQ, mb)) {
          val slow = Matching.compatible(paperQ, ma, mb).isDefined
          val fast = Matching.crossCompatible(
            paperQ, as.toIndexedSeq, as.map(ma).toIndexedSeq, bs.toIndexedSeq, bs.map(mb).toIndexedSeq)
          assert(fast == slow, s"ma=$ma mb=$mb")
          agreeChecked += 1
        }
      }
    }
    assert(agreeChecked > 30, s"only $agreeChecked comparable samples")
  }

  test("match keys are canonical") {
    val k1 = Matching.key(m)
    val k2 = Matching.key(m.toSeq.reverse.toMap)
    assert(k1 == k2)
  }
}
