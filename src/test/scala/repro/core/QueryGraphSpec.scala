package repro.core

import org.scalatest.funsuite.AnyFunSuite

class QueryGraphSpec extends AnyFunSuite {
  import Fixtures.paperQ

  private def v(id: Int, l: String)            = QueryVertex(id, l)
  private def qe(id: Int, s: Int, d: Int)      = QueryEdge(id, s, d, "-")

  test("paper query builds and closes the timing order transitively") {
    assert(paperQ.precedes(3, 1))
    assert(paperQ.precedes(1, 2))
    assert(paperQ.precedes(3, 2), "closure: ε3≺ε1≺ε2 ⇒ ε3≺ε2")
    assert(paperQ.precedes(6, 5) && paperQ.precedes(5, 4))
    assert(paperQ.precedes(6, 4), "closure: ε6≺ε5≺ε4 ⇒ ε6≺ε4")
    assert(!paperQ.precedes(1, 3) && !paperQ.precedes(2, 1))
    assert(!paperQ.precedes(6, 1) && !paperQ.precedes(1, 6), "chains are unrelated")
  }

  test("order is a strict partial order: cycles rejected") {
    val ex = intercept[IllegalArgumentException] {
      QueryGraph(
        Seq(v(0, "A"), v(1, "B"), v(2, "C")),
        Seq(qe(1, 0, 1), qe(2, 1, 2)),
        Set((1, 2), (2, 1)),
      )
    }
    assert(ex.getMessage.contains("cycle"))
  }

  test("self-loop query edges rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph(Seq(v(0, "A")), Seq(qe(1, 0, 0)), Set.empty)
    }
  }

  test("duplicate (src,dst,label) query edges rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph(Seq(v(0, "A"), v(1, "B")), Seq(qe(1, 0, 1), qe(2, 0, 1)), Set.empty)
    }
  }

  test("parallel query edges with distinct labels are allowed (Fig-1 pattern)") {
    val q = QueryGraph(
      Seq(v(0, "A"), v(1, "B")),
      Seq(QueryEdge(1, 0, 1, "x"), QueryEdge(2, 0, 1, "y")),
      Set((1, 2)),
    )
    assert(q.edges.size == 2)
  }

  test("disconnected query rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph(
        Seq(v(0, "A"), v(1, "B"), v(2, "C"), v(3, "D")),
        Seq(qe(1, 0, 1), qe(2, 2, 3)),
        Set.empty,
      )
    }
  }

  test("unknown vertex / edge references rejected") {
    intercept[IllegalArgumentException] {
      QueryGraph(Seq(v(0, "A"), v(1, "B")), Seq(qe(1, 0, 7)), Set.empty)
    }
    intercept[IllegalArgumentException] {
      QueryGraph(Seq(v(0, "A"), v(1, "B")), Seq(qe(1, 0, 1)), Set((1, 9)))
    }
  }

  test("prerequisite sets (Definition 6) on the paper query") {
    assert(paperQ.preq(1) == Set(3, 1), "Preq(ε1) = {ε3, ε1} (Fig 6a)")
    assert(paperQ.preq(4) == Set(6, 5, 4), "Preq(ε4) = {ε6, ε5, ε4} (Fig 6b)")
    assert(paperQ.preq(2) == Set(3, 1, 2))
    assert(paperQ.preq(6) == Set(6))
  }

  test("edge adjacency on the paper query") {
    assert(paperQ.adjacentEdges(6, 5), "ε6,ε5 share b")
    assert(paperQ.adjacentEdges(5, 4), "ε5,ε4 share c")
    assert(!paperQ.adjacentEdges(6, 4), "ε6,ε4 share nothing")
    assert(paperQ.adjacentEdges(3, 1), "ε3,ε1 share f")
    assert(!paperQ.adjacentEdges(1, 2), "ε1,ε2 share nothing")
    assert(!paperQ.adjacentEdges(3, 2))
  }

  test("weak connectivity of edge subsets") {
    assert(paperQ.isWeaklyConnected(Set(6, 5, 4)))
    assert(paperQ.isWeaklyConnected(Set(3, 1)))
    assert(!paperQ.isWeaklyConnected(Set(6, 4)))
    assert(!paperQ.isWeaklyConnected(Set(3, 2)))
    assert(paperQ.isWeaklyConnected(paperQ.edges.map(_.id).toSet))
    assert(paperQ.isWeaklyConnected(Set.empty))
  }

  test("diameter of a path query") {
    val q = QueryGraph(
      Seq(v(0, "A"), v(1, "B"), v(2, "C"), v(3, "D")),
      Seq(qe(1, 0, 1), qe(2, 1, 2), qe(3, 2, 3)),
      Set.empty,
    )
    assert(q.diameter == 3)
  }

  test("distinct term labels count label triples") {
    // paperQ has 6 distinct (srcLabel, edgeLabel, dstLabel) triples
    assert(paperQ.distinctTermLabels == 6)
    val q = QueryGraph(
      Seq(v(0, "A"), v(1, "A"), v(2, "A")),
      Seq(qe(1, 0, 1), qe(2, 1, 2)),
      Set.empty,
    )
    assert(q.distinctTermLabels == 1, "identical label triples collapse")
  }

  test("matchesEdge honours vertex and edge labels with wildcards") {
    val q = QueryGraph(
      Seq(v(0, "A"), v(1, "*")),
      Seq(QueryEdge(1, 0, 1, "*")),
      Set.empty,
    )
    val ok  = StreamEdge(1, 100, "A", 101, "Z", "anything", 5)
    val bad = StreamEdge(2, 100, "B", 101, "Z", "anything", 6)
    assert(q.matchesEdge(q.edgeById(1), ok))
    assert(!q.matchesEdge(q.edgeById(1), bad))
  }

  test("edgeById and precedes agree with edges and order, unknown ids included") {
    val sparse = QueryGraph(
      Seq(v(0, "A"), v(1, "B"), v(2, "C")),
      Seq(qe(10, 0, 1), qe(3, 1, 2), qe(7, 0, 2)),
      Set((10, 3), (3, 7)),
    )
    for (q <- Seq(paperQ, sparse)) {
      q.edges.foreach(e => assert(q.edgeById(e.id) eq e))
      val ids   = q.edges.map(_.id)
      val probe = (ids.min - 2 to ids.max + 2) :+ Int.MinValue :+ Int.MaxValue
      for (a <- probe; b <- probe) assert(q.precedes(a, b) == q.order((a, b)), s"($a, $b)")
      for (id <- probe if !ids.contains(id)) intercept[NoSuchElementException](q.edgeById(id))
    }
  }

  test("edge ids spanning more than 2^16 ids are rejected, not overflowed") {
    for ((a, b) <- Seq((Int.MinValue, Int.MaxValue), (-5, Int.MaxValue - 10), (0, 1 << 20)))
      intercept[IllegalArgumentException] {
        QueryGraph(Seq(v(0, "A"), v(1, "B"), v(2, "C")), Seq(qe(a, 0, 1), qe(b, 1, 2)), Set((a, b)))
      }
    val widest = QueryGraph(Seq(v(0, "A"), v(1, "B"), v(2, "C")), Seq(qe(7, 0, 1), qe(7 + 65535, 1, 2)), Set.empty)
    assert(widest.edgeById(7 + 65535).src == 1)
  }

  test("transitive closure helper") {
    val c = QueryGraph.transitiveClosure(Set((1, 2), (2, 3), (3, 4)))
    assert(c == Set((1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4)))
  }
}
