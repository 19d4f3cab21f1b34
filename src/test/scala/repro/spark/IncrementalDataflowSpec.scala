package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** The windowed-state incremental dataflow must hold, after every
  * micro-batch, exactly the matches a from-scratch snapshot computation
  * yields — and its deltas must sum to the same set.
  */
class IncrementalDataflowSpec extends SparkSpec {

  private def keysOf(df: org.apache.spark.sql.DataFrame, q: QueryGraph): Set[String] =
    df.collect().map { r =>
      q.edges.map(_.id).sorted.map(qe => s"$qe:${r.getAs[Long](s"m_$qe")}").mkString(",")
    }.toSet

  private def runFlow(q: QueryGraph, stream: Vector[StreamEdge], window: Long, batch: Int,
                      oracleOnFinal: Boolean): Unit = {
    val flow   = new IncrementalDataflow(spark, q, window)
    val all    = EdgeStreams.toDf(spark, stream)
    var deltas = Set.empty[String]
    stream.grouped(batch).foreach { b =>
      val now = b.last.ts
      deltas ++= keysOf(flow.advanceBatch(b, now), q)
      val snap   = EdgeStreams.snapshot(all, now, window)
      val expect = keysOf(SnapshotMatcher.matches(snap, q), q)
      assert(keysOf(flow.currentMatches, q) == expect, s"state wrong at t=$now")
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
    assert(keysOf(flow.advanceBatch(emb, 6), Fixtures.paperQ).size == 1)
    // empty batch at t=11: ts=1 expires, window (2,11]
    val late = Vector(Fixtures.e(700, 701, 11))
    flow.advanceBatch(late, 11)
    assert(keysOf(flow.currentMatches, Fixtures.paperQ).isEmpty)
  }

  test("within-batch joins: a whole embedding arriving in one batch is found") {
    val flow  = new IncrementalDataflow(spark, Fixtures.paperQ, window = 100)
    val delta = flow.advanceBatch(Fixtures.paperEmbedding(), 6)
    assert(keysOf(delta, Fixtures.paperQ).size == 1)
  }

  test("deltas report only new matches, never repeats") {
    val emb  = Fixtures.paperEmbedding()
    val flow = new IncrementalDataflow(spark, Fixtures.paperQ, window = 50)
    val d1   = keysOf(flow.advanceBatch(emb, 6), Fixtures.paperQ)
    val d2   = keysOf(flow.advanceBatch(Vector(Fixtures.e(800, 801, 7)), 7), Fixtures.paperQ)
    assert(d1.size == 1 && d2.isEmpty)
  }
}
