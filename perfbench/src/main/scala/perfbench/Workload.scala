package perfbench

import scala.collection.mutable
import scala.util.Random

import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** One named workload: a prefix-stable stream generator, a window, a query
  * drawn by a fixed seed from a fixed prefix of the stream, and the number
  * of edges one pass replays.
  *
  * @param generator the generator call, printed verbatim into the identity
  *                  so a changed definition fails the pins
  */
final case class Workload(
    name: String,
    generator: String,
    generate: Int => Vector[StreamEdge],
    window: Long,
    queryPrefix: Int,
    querySeed: Long,
    passEdges: Int,
)

object Workload {

  val QuerySize = 6

  /** Why each workload exists is recorded in BENCHMARK.json and README.md. */
  val all: Seq[Workload] = Seq(
    Workload("traffic-dense", "GraphStreams.traffic(n, nHosts=120, nPorts=10, seed=19)",
      n => GraphStreams.traffic(n, nHosts = 120, nPorts = 10, seed = 19), 1500, 30000, 4, 5000),
    Workload("lsbench-chain", "GraphStreams.lsbench(n, nUsers=600)",
      n => GraphStreams.lsbench(n, nUsers = 600), 1500, 100000, 3, 100000),
    Workload("wiki-sparse", "GraphStreams.wikiTalk(n, nUsers=120)",
      n => GraphStreams.wikiTalk(n, nUsers = 120), 1500, 300000, 3, 300000),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** The generated inputs of one run.
  *
  * `canonical` is the generator's output for one pass. `stream` is the same
  * pass with its vertex ids renamed by a permutation drawn from the run
  * seed: labels ride on the edges, so the renamed stream is isomorphic to
  * the canonical one and has the same matches (match keys name edge ids,
  * which are kept). That lets the answers be pinned while each seed still
  * feeds the engine different inputs.
  */
final class Input(val w: Workload, seed: Long) {

  private val generated = w.generate(math.max(w.queryPrefix, w.passEdges))

  val query: QueryGraph = Input.query(w, generated)

  val canonical: Vector[StreamEdge] = generated.take(w.passEdges)

  val stream: Vector[StreamEdge] = {
    val ids  = canonical.flatMap(e => Seq(e.src, e.dst)).distinct.sorted
    val perm = new Random(seed).shuffle(ids)
    val to   = mutable.LongMap[Long]()
    ids.zip(perm).foreach { case (a, b) => to(a) = b }
    canonical.map(e => e.copy(src = to(e.src), dst = to(e.dst)))
  }

  /** Digest of the canonical pass: every field of every edge, in order. */
  def streamDigest: String = {
    var h = Digest.Seed
    canonical.foreach { e =>
      h = Digest.add(h, e.id); h = Digest.add(h, e.src); h = Digest.add(h, e.srcLabel.hashCode)
      h = Digest.add(h, e.dst); h = Digest.add(h, e.dstLabel.hashCode)
      h = Digest.add(h, e.label.hashCode); h = Digest.add(h, e.ts)
    }
    Digest.hex(h)
  }

  /** The query as text: vertices with labels, edges, and the closed ≺. */
  def queryText: String = {
    val vs = query.vertices.sortBy(_.id).map(v => s"${v.id}:${v.label}").mkString(",")
    val es = query.edges.sortBy(_.id).map(e => s"${e.id}:${e.src}->${e.dst}:${e.label}").mkString(",")
    val or = query.order.toSeq.sorted.map { case (a, b) => s"$a<$b" }.mkString(",")
    s"V[$vs] E[$es] O[$or]"
  }
}

object Input {

  /** The workload's query, drawn from the first `queryPrefix` edges of `generated`. */
  def query(w: Workload, generated: Vector[StreamEdge]): QueryGraph =
    QueryGenerator.fromStream(generated.take(w.queryPrefix), Workload.QuerySize,
      QueryGenerator.RandomOrder, w.querySeed, w.window)
      .getOrElse(throw new IllegalStateException(s"${w.name}: query seed ${w.querySeed} yields no query"))
}

/** 64-bit mixing digests (SplitMix64 finaliser). */
object Digest {
  val Seed = 0x9E3779B97F4A7C15L

  def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Order-dependent fold of one value into a running digest. */
  def add(h: Long, v: Long): Long = mix(h ^ mix(v))

  /** Order-independent digest of one match (query edge id -> data edge id). */
  def ofMatch(m: Matching.Match): Long = {
    var s = 0L
    m.foreach { case (qe, e) => s += mix(qe.toLong * 0x100000001B3L ^ e.id) }
    mix(s)
  }

  def hex(h: Long): String = f"$h%016x"
}
