package repro.spark

import repro.{Oracle, SparkSpec}
import repro.SparkSpec.matchKeys
import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** The windowed-state incremental dataflow must hold, after every
  * micro-batch, exactly the matches a from-scratch snapshot computation
  * yields — and its deltas must sum to the same set.
  */
class IncrementalDataflowSpec extends SparkSpec {

  private def runFlow(q: QueryGraph, stream: Vector[StreamEdge], window: Long, batch: Int,
                      oracleOnFinal: Boolean): Unit = {
    val flow   = new IncrementalDataflow(spark, q, window)
    val all    = EdgeStreams.toDf(spark, stream)
    var deltas = Set.empty[String]
    stream.grouped(batch).foreach { b =>
      val now = b.last.ts
      deltas ++= matchKeys(flow.advanceBatch(b, now), q)
      val snap   = EdgeStreams.snapshot(all, now, window)
      val expect = matchKeys(SnapshotMatcher.matches(snap, q), q)
      val state  = matchKeys(flow.currentMatches, q)
      assert(state == expect, s"state wrong at t=$now")
      // an oracle that does not share MatchPlan with the dataflow
      assert(state == Fixtures.bruteForce(q, stream.filter(e => e.ts > now - window && e.ts <= now)),
        s"state vs brute force at t=$now")
      assert(expect.subsetOf(deltas), s"every current match was once a delta (t=$now)")
      if (oracleOnFinal && now == stream.last.ts)
        Oracle.assertEquivalent(
          flow.currentMatches,
          MatchSql.matchesSql(q, "edges", window = Some((now - window, now))),
          "edges" -> all,
        )
    }
  }

  test("paper query: dataflow state tracks snapshots across batches") {
    val emb    = Fixtures.paperEmbedding()
    val filler = (7 to 14).map(i => Fixtures.e(500 + i, 600 + i, i.toLong)).toVector
    runFlow(Fixtures.paperQ, emb ++ filler, window = 9, batch = 3, oracleOnFinal = true)
  }

  for (seed <- 1 to 3) {
    test(s"random query: dataflow equals snapshot recompute per batch (seed=$seed)") {
      val stream = GraphStreams.wikiTalk(120, 9, seed = seed * 3 + 1)
      val q = QueryGenerator.fromStream(stream, 3, QueryGenerator.RandomOrder, seed, 40)
        .getOrElse(fail("gen failed"))
      runFlow(q, stream, window = 40, batch = 20, oracleOnFinal = seed == 1)
    }
  }

  test("expiry inside the dataflow: matches vanish when an edge leaves the window") {
    val emb  = Fixtures.paperEmbedding() // ts 1..6
    val flow = new IncrementalDataflow(spark, Fixtures.paperQ, window = 9)
    assert(matchKeys(flow.advanceBatch(emb, 6), Fixtures.paperQ).size == 1)
    // empty batch at t=11: ts=1 expires, window (2,11]
    val late = Vector(Fixtures.e(700, 701, 11))
    flow.advanceBatch(late, 11)
    assert(matchKeys(flow.currentMatches, Fixtures.paperQ).isEmpty)
  }

  test("within-batch joins: a whole embedding arriving in one batch is found") {
    val flow  = new IncrementalDataflow(spark, Fixtures.paperQ, window = 100)
    val delta = flow.advanceBatch(Fixtures.paperEmbedding(), 6)
    assert(matchKeys(delta, Fixtures.paperQ).size == 1)
  }

  test("Definition 1 is enforced at the batch ingress") {
    val emb  = Fixtures.paperEmbedding() // ts 1..6
    val flow = new IncrementalDataflow(spark, Fixtures.paperQ, window = 50)
    intercept[IllegalArgumentException](flow.advanceBatch(emb, 5))                 // ts=6 > now
    flow.advanceBatch(emb.take(3), 3)
    intercept[IllegalArgumentException](flow.advanceBatch(Vector.empty, 2))        // now goes back
    intercept[IllegalArgumentException](flow.advanceBatch(emb.slice(2, 4), 4))     // ts=3 ≤ previous now
    flow.advanceBatch(emb.drop(3), 6)
    assert(matchKeys(flow.currentMatches, Fixtures.paperQ) == Fixtures.bruteForce(Fixtures.paperQ, emb))
  }

  test("deltas report only new matches, never repeats") {
    val emb  = Fixtures.paperEmbedding()
    val flow = new IncrementalDataflow(spark, Fixtures.paperQ, window = 50)
    val d1   = matchKeys(flow.advanceBatch(emb, 6), Fixtures.paperQ)
    val d2   = matchKeys(flow.advanceBatch(Vector(Fixtures.e(800, 801, 7)), 7), Fixtures.paperQ)
    assert(d1.size == 1 && d2.isEmpty)
  }
}
