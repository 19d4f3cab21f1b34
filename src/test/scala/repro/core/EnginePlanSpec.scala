package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.LockMode.{S, X}
import repro.data.{GraphStreams, QueryGenerator}

/** The pre-computed lock plans (§V-A's worst-case access lists) must match
  * the engine's actual access sequence — the concurrency layer enqueues
  * exactly these requests before launching a transaction.
  */
class EnginePlanSpec extends AnyFunSuite {
  import Fixtures._

  private def engine = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)

  /** A guard that records the key/mode sequence and verifies it against a
    * plan prefix (skips = cancelled suffix steps). `skipCalls` counts the
    * `skip` calls: the benchmark's recorder counts one discard or abort per
    * call.
    */
  private final class RecordingGuard(plan: Vector[(ItemKey, LockMode)]) extends Guard {
    var cursor            = 0
    var skipped           = 0
    var skipCalls         = 0
    override def exec[A](key: ItemKey, mode: LockMode)(f: => A): A = {
      assert(cursor < plan.length, "executed past the plan")
      assert(plan(cursor) == (key, mode), s"step $cursor: planned ${plan(cursor)}, executed ($key,$mode)")
      cursor += 1
      f
    }
    override def skip(n: Int): Unit = { cursor += n; skipped += n; skipCalls += 1 }
  }

  test("σ matching nothing has an empty insert/delete plan (Alg 3 CONTINUE)") {
    val eng   = engine
    val alien = StreamEdge(1, 900, "Z", 901, "Z", "zzz", 1)
    assert(eng.insertPlan(alien).isEmpty)
    assert(eng.deletePlan(alien).isEmpty)
  }

  test("a label-matching self-loop has empty insert and delete plans") {
    // Query edges A→A: a self-loop A-vertex edge matches their labels but no
    // query edge, since query graphs have no self-loops.
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "A"), QueryVertex(2, "A")),
      Seq(QueryEdge(1, 0, 1, "-"), QueryEdge(2, 1, 2, "-")),
      Set((1, 2)),
    )
    for (mode <- Seq(StoreMode.MsTree, StoreMode.Independent)) {
      val eng  = new TimingEngine(q, Decomposer.decompose(q), mode)
      val loop = StreamEdge(7, 50, "A", 50, "A", "-", 1)
      assert(eng.insertPlan(loop).isEmpty && eng.deletePlan(loop).isEmpty, s"$mode")
      assert(eng.insert(loop).isEmpty && eng.spaceCells == 0)
      val plain = StreamEdge(8, 50, "A", 51, "A", "-", 2)
      assert(eng.insertPlan(plain).nonEmpty && eng.deletePlan(plain).nonEmpty)
    }
  }

  test("an edge matching only a non-first position has an empty delete plan") {
    // ε5 is the second edge of the {ε6ε5ε4} chain: a match holding it has
    // already left the window with its ε6 edge when the ε5 edge expires.
    for (mode <- Seq(StoreMode.MsTree, StoreMode.Independent)) {
      val eng = new TimingEngine(paperQ, Decomposer.decompose(paperQ), mode)
      val s5  = e(vb, vc, 1)
      assert(eng.insertPlan(s5).nonEmpty, s"$mode")
      assert(eng.deletePlan(s5).isEmpty, s"$mode")
      assert(eng.deletePlan(e(va, vb, 2)).nonEmpty, s"$mode: ε6 heads its chain")
    }
  }

  test("first-chain-edge insert plans a single X") {
    val eng = engine
    val s6  = e(va, vb, 1) // matches ε6 only: first edge of the {6,5,4} chain
    val plan = eng.insertPlan(s6)
    assert(plan.length == 1)
    assert(plan.head._2 == X)
  }

  test("mid-chain insert plans S on the predecessor then X on the item") {
    val eng = engine
    val s5  = e(vb, vc, 1) // matches ε5: second edge of the chain
    val plan = eng.insertPlan(s5)
    assert(plan.map(_._2) == Vector(S, X))
    assert(plan(0)._1.level == 0 && plan(1)._1.level == 1)
    assert(plan(0)._1.list == plan(1)._1.list && plan(0)._1.list > 0)
  }

  test("chain-completing insert plans the L0 cascade (§V-A's Ins(σ14) example)") {
    val eng = engine
    val s4  = e(vc, vd, 1) // matches ε4: last edge of the 3-chain
    val plan = eng.insertPlan(s4)
    // S(chain,1) X(chain,2) then L0 cascade to level k-1: for the subquery
    // at join position i: [S(L0,i-1)] X(L0,i), then (S(chain), X(L0)) pairs
    assert(plan.take(2).map(_._2) == Vector(S, X))
    val l0Writes = plan.filter(p => p._1.list == 0 && p._2 == X)
    assert(l0Writes.map(_._1.level).sorted.last == eng.decomposition.k - 1)
  }

  test("delete plans X on every chain level then every L0 level from the subquery on") {
    val eng = engine
    val s6  = e(va, vb, 1)
    val plan = eng.deletePlan(s6)
    assert(plan.nonEmpty && plan.forall(_._2 == X))
    val (i, _) = eng.decomposition.positionOf(6)
    val chainKeys = plan.filter(_._1.list == i + 1).map(_._1.level)
    assert(chainKeys == (0 until 3).toVector, "all chain levels in order")
    val l0Keys = plan.filter(_._1.list == 0).map(_._1.level)
    assert(l0Keys == (i until eng.decomposition.k).toVector)
  }

  test("execution consumes exactly the planned steps (insert, full embedding)") {
    val eng = engine
    paperEmbedding().foreach { ed =>
      val plan  = eng.insertPlan(ed)
      val guard = new RecordingGuard(plan)
      eng.insert(ed, guard)
      assert(guard.cursor == plan.length, s"plan fully consumed for $ed")
    }
    assert(eng.results.size == 1)
  }

  test("execution consumes exactly the planned steps (delete)") {
    val eng = engine
    val emb = paperEmbedding()
    emb.foreach(eng.insert)
    emb.foreach { ed =>
      val plan  = eng.deletePlan(ed)
      val guard = new RecordingGuard(plan)
      eng.delete(ed, guard)
      assert(guard.cursor == plan.length)
    }
    assert(eng.results.isEmpty)
  }

  test("aborted groups skip the remainder of their planned steps") {
    val eng = engine
    val s5  = e(vb, vc, 1) // ε5 with empty predecessor: discardable
    val plan  = eng.insertPlan(s5)
    val guard = new RecordingGuard(plan)
    eng.insert(s5, guard)
    assert(guard.cursor == plan.length)
    assert(guard.skipped == 1, "the X step after the empty join is skipped")
    assert(guard.skipCalls == 1, "one skip call cancels the rest of the group")
  }

  test("multi-position edges concatenate their group plans") {
    // an edge matching two query edges (wiki-style repeated label pairs)
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "B"), QueryVertex(2, "A"), QueryVertex(3, "B")),
      Seq(QueryEdge(1, 0, 1, "-"), QueryEdge(2, 1, 2, "x"), QueryEdge(3, 2, 3, "-")),
      Set((1, 2), (2, 3)),
    )
    val eng = new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree)
    val ab  = StreamEdge(7, 50, "A", 51, "B", "-", 1) // matches ε1 and ε3
    val plan = eng.insertPlan(ab)
    // two groups: ε1 (first edge → 1 step) and ε3 (third edge → ≥2 steps)
    assert(plan.length >= 3)
    val guard = new RecordingGuard(plan)
    eng.insert(ab, guard)
    assert(guard.cursor == plan.length)
  }

  test("work-capped inserts still consume their plans and report only valid matches") {
    // A dense stream and a small cap: capped inserts abort their group like
    // an empty join, so answers may be missing but never wrong.
    val window = 40L
    val stream = GraphStreams.traffic(300, 8, nPorts = 3, seed = 5)
    val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, 11, window)
      .getOrElse(fail("query generation failed"))
    for (mode <- Seq(StoreMode.MsTree, StoreMode.Independent)) {
      val eng = new TimingEngine(q, Decomposer.decompose(q), mode)
      eng.workCap = 30L
      // Every guarded call is checked against its own plan.
      val planned = new EngineApi {
        override def insert(sigma: StreamEdge): Vector[Matching.Match] = {
          val plan  = eng.insertPlan(sigma)
          val guard = new RecordingGuard(plan)
          val out   = eng.insert(sigma, guard)
          assert(guard.cursor == plan.length, s"insert plan of $sigma")
          // Each group writes one chain item and aborts at most once.
          val chainWrites = plan.count { case (key, m) => key.list > 0 && m == X }
          assert(guard.skipCalls <= chainWrites, s"insert of $sigma: ${guard.skipCalls} skip calls")
          out
        }
        override def delete(sigma: StreamEdge): Unit = {
          val plan  = eng.deletePlan(sigma)
          val guard = new RecordingGuard(plan)
          eng.delete(sigma, guard)
          assert(guard.cursor == plan.length, s"delete plan of $sigma")
        }
        override def results: Vector[Matching.Match] = eng.results
        override def spaceCells: Long                = eng.spaceCells
      }
      val driver = new WindowDriver(planned, window)
      var reported = 0
      stream.zipWithIndex.foreach { case (ed, step) =>
        driver.advance(ed).foreach { m =>
          reported += 1
          assert(m.size == q.edges.size && Matching.isValidPartial(q, m), s"$mode reported $m")
        }
        if (step % 25 == 24) {
          assert(keys(eng.results).subsetOf(bruteForce(q, driver.snapshot)), s"$mode at step $step")
        }
      }
      assert(eng.cappedInserts.sum() > 0, s"$mode: the cap never bit")
      assert(reported > 0, s"$mode: no match survived the cap")
    }
  }
}
