package repro.spark

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.SparkSpec.matchKeys
import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** The Catalyst snapshot matcher is verified three ways: against DuckDB
  * (via the generated SQL and the Oracle), against the core brute force,
  * and against the incremental Timing engine.
  */
class SnapshotMatcherSpec extends SparkSpec {
  import Fixtures._

  /** DuckDB checks how the plan is evaluated; the brute force, which
    * shares nothing with [[MatchPlan]], checks how it was built.
    */
  private def checkAll(name: String, q: QueryGraph, edges: Vector[StreamEdge]): DataFrame = {
    val df  = EdgeStreams.toDf(spark, edges)
    val got = SnapshotMatcher.matches(df, q)
    // 1. DuckDB oracle on the generated SQL
    Oracle.assertEquivalent(got, MatchSql.matchesSql(q, "edges"), "edges" -> df)
    // 2. core brute force
    assert(matchKeys(got, q) == bruteForce(q, edges), s"$name: Spark vs brute force")
    got
  }

  test("paper query over the paper embedding (Oracle-checked)") {
    checkAll("paper", paperQ, paperEmbedding())
  }

  test("paper query with decoy edges (Oracle-checked)") {
    val decoys = Vector(e(vf, va, 0), e(vd, vb, 10), e(va, vb, 11))
    checkAll("paper+decoys", paperQ, paperEmbedding() ++ decoys)
  }

  test("attack pattern over planted traffic (Oracle-checked)") {
    val s = GraphStreams.trafficWithAttack(400, 12, plantAt = 200)
    val windowEdges = s.filter(e => e.ts > 170 && e.ts <= 230)
    checkAll("attack", GraphStreams.attackQuery, windowEdges)
  }

  for (seed <- 1 to 4) {
    test(s"random wiki-like query, Oracle-checked (seed=$seed)") {
      val stream = GraphStreams.wikiTalk(200, 10, seed = seed * 7)
      val q = QueryGenerator.fromStream(stream, 3 + seed % 2, QueryGenerator.RandomOrder, seed, 60)
        .getOrElse(fail("gen failed"))
      checkAll(s"seed=$seed", q, stream.take(120))
    }
  }

  for (seed <- 1 to 3) {
    test(s"random lsbench query, Oracle-checked (seed=$seed)") {
      val stream = GraphStreams.lsbench(260, 12, seed = seed * 5)
      val q = QueryGenerator.fromStream(stream, 3, QueryGenerator.RandomOrder, seed, 80)
        .getOrElse(fail("gen failed"))
      checkAll(s"lsbench-$seed", q, stream.take(150))
    }
  }

  test("wildcard labels are honoured (Oracle-checked)") {
    val q = QueryGraph(
      Seq(QueryVertex(0, "IP"), QueryVertex(1, "*")),
      Seq(QueryEdge(1, 0, 1, "*")),
      Set.empty,
    )
    val edges = GraphStreams.traffic(60, 8).toVector
    checkAll("wildcard", q, edges)
  }

  test("timing predicates eliminate order-violating rows (Oracle-checked)") {
    // two A→B→C paths, one timing-valid, one violating ε1≺ε2
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "B"), QueryVertex(2, "C")),
      Seq(QueryEdge(1, 0, 1, "-"), QueryEdge(2, 1, 2, "-")),
      Set((1, 2)),
    )
    val edges = Vector(
      StreamEdge(1, 10, "A", 11, "B", "-", 1), StreamEdge(2, 11, "B", 12, "C", "-", 2), // valid
      StreamEdge(3, 20, "A", 21, "B", "-", 6), StreamEdge(4, 21, "B", 22, "C", "-", 5), // violates
    )
    assert(checkAll("timing", q, edges).count() == 1)
  }

  test("snapshot window filter matches Definition 2 (Oracle-checked)") {
    val stream = GraphStreams.wikiTalk(120, 8, seed = 21)
    val q = QueryGenerator.fromStream(stream, 3, QueryGenerator.EmptyOrder, 2, 60)
      .getOrElse(fail("gen failed"))
    val df   = EdgeStreams.toDf(spark, stream)
    val snap = EdgeStreams.snapshot(df, t = 100, w = 40)
    assert(snap.collect().forall { r => val ts = r.getAs[Long]("ts"); ts > 60 && ts <= 100 })
    val got = SnapshotMatcher.matches(snap, q)
    Oracle.assertEquivalent(
      got,
      MatchSql.matchesSql(q, "edges", window = Some((60L, 100L))),
      "edges" -> df,
    )
  }

  test("snapshot matcher agrees with the Timing engine along a stream") {
    val stream = GraphStreams.wikiTalk(150, 9, seed = 33)
    val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, 8, 40)
      .getOrElse(fail("gen failed"))
    val eng    = new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree)
    val driver = new WindowDriver(eng, 40)
    stream.foreach(driver.advance)
    val df = EdgeStreams.toDf(spark, driver.snapshot)
    assert(matchKeys(SnapshotMatcher.matches(df, q), q) == keys(eng.results))
  }

  test("parallel query edges (distinct labels) bind distinct data edges") {
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "B")),
      Seq(QueryEdge(1, 0, 1, "x"), QueryEdge(2, 0, 1, "y")),
      Set((1, 2)),
    )
    val edges = Vector(
      StreamEdge(1, 10, "A", 11, "B", "x", 1),
      StreamEdge(2, 10, "A", 11, "B", "y", 2),
      StreamEdge(3, 10, "A", 11, "B", "y", 0), // violates ε1≺ε2
    )
    assert(checkAll("parallel", q, edges).count() == 1)
  }

  test("labels containing a quote are matched and quoted in SQL (Oracle-checked)") {
    val q = QueryGraph(
      Seq(QueryVertex(0, "O'Neil"), QueryVertex(1, "B")),
      Seq(QueryEdge(1, 0, 1, "it's"), QueryEdge(2, 1, 0, "'")),
      Set((1, 2)),
    )
    val edges = Vector(
      StreamEdge(1, 10, "O'Neil", 11, "B", "it's", 1),
      StreamEdge(2, 11, "B", 10, "O'Neil", "'", 2),
      StreamEdge(3, 12, "O'Neil", 11, "B", "its", 3), // label differs only by the quote
      StreamEdge(4, 11, "B", 12, "O'Neil", "''", 4),   // doubled quote is a different label
    )
    assert(checkAll("quote", q, edges).count() == 1)
  }
}
