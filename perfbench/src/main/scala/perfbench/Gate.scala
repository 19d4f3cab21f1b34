package perfbench

import scala.collection.mutable
import scala.io.Source

import repro.core._

/** Pinned workload identity and answers, read from a tab-separated file of
  * `workload <TAB> key <TAB> value` lines (`#` starts a comment).
  */
final class Pins(lines: Seq[(String, String, String)]) {
  private val m = lines.map { case (w, k, v) => (w, k) -> v }.toMap
  def get(workload: String, key: String): Option[String] = m.get((workload, key))
}

object Pins {
  def load(path: String): Pins = {
    val src = Source.fromFile(path, "UTF-8")
    try new Pins(src.getLines().map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
      l.split("\t", 3) match {
        case Array(w, k, v) => (w, k, v)
        case _              => throw new IllegalArgumentException(s"$path: malformed pin line '$l'")
      }
    }.toSeq)
    finally src.close()
  }
}

/** The correctness checks a run applies to the engine's answers. */
object Gate {

  /** A reported match is complete, valid (labels, injective and consistent
    * binding, ≺) and spans less than the window.
    */
  def validMatch(q: QueryGraph, window: Long, m: Matching.Match): Boolean =
    m.size == q.edges.size && q.edges.forall(e => m.contains(e.id)) &&
      Matching.isValidPartial(q, m) &&
      m.values.map(_.ts).max - m.values.map(_.ts).min < window

  /** Engine answers equal the brute-force matches of the window snapshot. */
  def agreesWithBruteForce(q: QueryGraph, results: Seq[Matching.Match], window: Seq[StreamEdge]): Boolean =
    Fixtures.keys(results) == Fixtures.bruteForce(q, window)

  /** Item sizes in a fixed textual order, `list.level=size`. */
  def itemSizesText(e: TimingEngine): String =
    e.itemSizes.toSeq.sortBy { case (k, _) => (k.list, k.level) }
      .map { case (k, n) => s"${k.list}.${k.level}=$n" }.mkString(",")

  /** Hand-counted work of the recording guard on the paper's running
    * example (Fixtures.paperQ fed Fixtures.paperEmbedding), per item, as
    * (tests, hits, skips); items not listed count nothing. The decomposition
    * of Fig 9 in the engine's join order: list 1 = e2, list 2 = e6e5e4,
    * list 3 = e3e1, and `L_0` items 0..2 join them in that order.
    *
    *  - e6@1 and e3@2 are roots of lists 2 and 3: no tests.
    *  - e5@3 reads the one e6 match of item (2,0) and extends it: (2,1) 1/1.
    *  - e1@4 extends the one e3 match: (3,1) 1/1. That completes e3e1, but
    *    `L_0` item 1 is empty: 0 pair tests and an abort on (0,2).
    *  - e4@5 extends the e6e5 match: (2,2) 1/1. That completes e6e5e4, but
    *    `L_0` item 0 is empty: 0 pair tests and an abort on (0,1).
    *  - e2@6 is the root of list 1 and completes it at once, so it becomes
    *    `L_0` item 0. The cascade pairs it with the one e6e5e4 match, (0,1)
    *    1 test and 1 hit, and that with the one e3e1 match, (0,2) 1 test and
    *    1 hit: the one full match.
    */
  val paperExpected: Map[ItemKey, (Long, Long, Long)] = Map(
    ItemKey(2, 1) -> ((1L, 1L, 0L)),
    ItemKey(3, 1) -> ((1L, 1L, 0L)),
    ItemKey(2, 2) -> ((1L, 1L, 0L)),
    ItemKey(0, 1) -> ((1L, 1L, 1L)),
    ItemKey(0, 2) -> ((1L, 1L, 1L)),
  )

  /** Runs the recording guard over the paper example; returns the problems. */
  def paperFixture(): Seq[String] = {
    val q      = Fixtures.paperQ
    val d      = Decomposer.decompose(q)
    val layers = new Layers(d)
    val driver = new WindowDriver(new TracedEngine(new TimingEngine(q, d, StoreMode.MsTree), layers), 100)
    val found  = Fixtures.paperEmbedding().map(driver.advance(_).size).sum
    val problems = mutable.ArrayBuffer[String]()
    val seqs = d.subqueries.map(_.seq.mkString("e", "e", "")).mkString(",")
    if (seqs != "e2,e6e5e4,e3e1") problems += s"paper fixture: decomposition is $seqs"
    if (found != 1 || layers.matches != 1) problems += s"paper fixture: $found matches, expected 1"
    val counted = (for {
      list  <- 0 to d.k
      level <- 0 until (if (list == 0) d.k else d.subqueries(list - 1).size)
      key    = ItemKey(list, level)
      ix     = layers.index(key)
      got    = (layers.tests(ix), layers.hits(ix), layers.skips(ix))
      if got != ((0L, 0L, 0L))
    } yield key -> got).toMap
    if (counted != paperExpected)
      problems += s"paper fixture: per-item (tests, hits, skips) $counted, hand count $paperExpected"
    problems.toSeq
  }
}
