package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchHarness._

/** Tables T16 + T18 (paper Figs 16/18): throughput and average space of
  * the six methods while the query size varies; |W| fixed at 1500.
  * (Paper: sizes 6–21 over 10K–50K windows; scaled to sizes 4–12.) Space
  * is reported in cells and as retained heap, as T17 does.
  */
class ComparativeQueryBench extends AnyFunSuite {

  private val sizes      = Seq(4, 6, 8, 10, 12)
  private val window     = 1500L
  private val streamLen  = 20000
  private val queriesPer = 2

  test("T16/T18: throughput and space vs query size") {
    for (ds <- Seq("traffic", "wiki")) {
      val stream = dataset(ds, streamLen)
      warmup(stream, queries(stream, 6, 1, window, 300))
      val names  = methodSet(queries(stream, 4, 1, window, 300).head).map(t => (t._1, t._3))
      val results: Map[(String, Int), RunResult] = (for {
        size <- sizes
        qs = queries(stream, size, queriesPer, windowSpan = window, seed0 = 300 + size)
        (name, budget) <- names
      } yield {
        val rs = qs.map { q =>
          val (_, mk, _) = methodSet(q).find(_._1 == name).get
          benchRunBest(mk, stream, window, maxEdges = budget)
        }
        (name, size) -> RunResult(
          rs.map(_.edges).sum,
          rs.map(_.seconds).sum,
          mean(rs.map(_.avgCells)),
          rs.map(_.matches).sum,
          mean(rs.map(_.heapBytes)),
        )
      }).toMap
      printTable(
        s"T16 Throughput (edges/s) vs query size — $ds",
        "method" +: sizes.map(s => s"|E(Q)|=$s"),
        names.map { case (n, _) => n +: sizes.map(s => fmt(results((n, s)).throughput)) },
      )
      printTable(
        s"T18 Space (KB) vs query size — $ds",
        "method" +: sizes.map(s => s"|E(Q)|=$s"),
        names.map { case (n, _) => n +: sizes.map(s => fmt(results((n, s)).spaceKb)) },
      )
      printTable(
        s"T18 Space, measured retained heap (KB) vs query size — $ds",
        "method" +: sizes.map(s => s"|E(Q)|=$s"),
        names.map { case (n, _) => n +: sizes.map(s => fmt(results((n, s)).heapKb)) },
      )
      if (ds == "traffic") sizes.foreach { s =>
        assert(results(("Timing", s)).throughput > results(("IncMat-TurboISO", s)).throughput,
          s"Timing should outrun IncMat at size=$s on $ds")
      }
    }
  }
}
