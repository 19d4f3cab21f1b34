package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchHarness._
/** Tables T15 + T17 (paper Figs 15/17): throughput and space of the six
  * methods while the window size varies; query size fixed at 8. Space is
  * reported twice: the cell model's average (DESIGN.md §5) and the retained
  * heap measured at the end of each run.
  * Scales are reduced vs the paper (20K-edge streams, windows 500–2500
  * units) — see EXPERIMENTS.md for the paper-vs-measured comparison.
  */
class ComparativeWindowBench extends AnyFunSuite {

  private val windows    = Seq(500L, 1000L, 1500L, 2000L, 2500L)
  private val streamLen  = 20000
  private val querySize  = 8
  private val queriesPer = 2

  test("T15/T17: throughput and space vs window size") {
    for (ds <- Seq("traffic", "wiki")) {
      val stream = dataset(ds, streamLen)
      val qs     = queries(stream, querySize, queriesPer, windowSpan = 1500, seed0 = 100)
      warmup(stream, qs)
      val names  = methodSet(qs.head).map(t => (t._1, t._3))
      val results: Map[(String, Long), RunResult] = (for {
        (name, budget) <- names
        w              <- windows
      } yield {
        val rs = qs.map { q =>
          val (_, mk, _) = methodSet(q).find(_._1 == name).get
          benchRunBest(mk, stream, w, maxEdges = budget)
        }
        (name, w) -> RunResult(
          rs.map(_.edges).sum,
          rs.map(_.seconds).sum,
          mean(rs.map(_.avgCells)),
          rs.map(_.matches).sum,
          mean(rs.map(_.heapBytes)),
        )
      }).toMap
      printTable(
        s"T15 Throughput (edges/s) vs window size — $ds",
        "method" +: windows.map(w => s"|W|=$w"),
        names.map { case (n, _) => n +: windows.map(w => fmt(results((n, w)).throughput)) },
      )
      printTable(
        s"T17 Space (KB) vs window size — $ds",
        "method" +: windows.map(w => s"|W|=$w"),
        names.map { case (n, _) => n +: windows.map(w => fmt(results((n, w)).spaceKb)) },
      )
      printTable(
        s"T17 Space, measured retained heap (KB) vs window size — $ds",
        "method" +: windows.map(w => s"|W|=$w"),
        names.map { case (n, _) => n +: windows.map(w => fmt(results((n, w)).heapKb)) },
      )
      // sanity on the dense (traffic) workload: Timing must beat the
      // recompute baseline; ultra-selective wiki queries are overhead-bound
      // and carry no such guarantee per run.
      if (ds == "traffic") windows.foreach { w =>
        assert(results(("Timing", w)).throughput > results(("IncMat-QuickSI", w)).throughput,
          s"Timing should outrun IncMat at |W|=$w on $ds")
      }
    }
  }
}
