package repro.data

import scala.util.Random
import repro.core.StreamEdge

/** Synthetic streaming-graph generators standing in for the paper's three
  * datasets (see DESIGN.md §3 for the substitution rationale). Timestamps
  * are 1..n so one "window unit" equals the mean inter-arrival gap, the
  * unit the paper uses for window sizes (§VII-C).
  */
object GraphStreams {

  /** Zipf sampler over ranks 1..n with exponent `alpha`. */
  final class Zipf(n: Int, alpha: Double, rnd: Random) {
    private val cdf = {
      val w = (1 to n).map(k => 1.0 / math.pow(k.toDouble, alpha))
      val s = w.sum
      w.scanLeft(0.0)(_ + _).tail.map(_ / s).toArray
    }
    def sample(): Int = {
      val u  = rnd.nextDouble()
      val ix = java.util.Arrays.binarySearch(cdf, u)
      val k  = if (ix >= 0) ix else -ix - 1
      math.min(k, n - 1) + 1
    }
  }

  private def distinctPair(rnd: Random, n: Int): (Long, Long) = {
    val a = rnd.nextInt(n)
    var b = rnd.nextInt(n)
    while (b == a) b = rnd.nextInt(n)
    (a.toLong, b.toLong)
  }

  /** CAIDA-like network traffic: every vertex is labelled `IP`, edge label
    * is `(dst port, protocol)` with Zipf-distributed ports (source port is
    * wildcarded away, as in §VII-A), hosts drawn with mild Zipf skew.
    */
  def traffic(n: Int, nHosts: Int, nPorts: Int = 60, seed: Long = 7): Vector[StreamEdge] = {
    val rnd   = new Random(seed)
    val ports = new Zipf(nPorts, 1.2, rnd)
    val hosts = new Zipf(nHosts, 0.6, rnd)
    (1 to n).map { t =>
      val a = hosts.sample() - 1
      var b = hosts.sample() - 1
      while (b == a) b = hosts.sample() - 1
      val port  = ports.sample()
      val proto = if (rnd.nextDouble() < 0.8) "tcp" else "udp"
      StreamEdge(t.toLong, a.toLong, "IP", b.toLong, "IP", s"p$port/$proto", t.toLong)
    }.toVector
  }

  /** wiki-talk-like stream: vertex label = first character of the (hashed)
    * user name — 26 labels; user activity is Zipf-skewed; one edge label.
    */
  def wikiTalk(n: Int, nUsers: Int, seed: Long = 11): Vector[StreamEdge] = {
    val rnd   = new Random(seed)
    val users = new Zipf(nUsers, 0.8, rnd)
    def lbl(u: Long): String = ('a' + (((u * 2654435761L) % 26 + 26) % 26).toInt).toChar.toString
    (1 to n).map { t =>
      val a = users.sample() - 1
      var b = users.sample() - 1
      while (b == a) b = users.sample() - 1
      StreamEdge(t.toLong, a.toLong, lbl(a.toLong), b.toLong, lbl(b.toLong), "talk", t.toLong)
    }.toVector
  }

  /** LSBench-like social stream: typed vertices (user/post/photo/gps/tag)
    * and predicate edge labels, mirroring the benchmark's GPS/Post streams.
    */
  def lsbench(n: Int, nUsers: Int, seed: Long = 13): Vector[StreamEdge] = {
    val rnd    = new Random(seed)
    val nPosts = math.max(2, nUsers * 2)
    val nTags  = math.max(2, nUsers / 5)
    val nGps   = math.max(2, nUsers / 2)
    // Vertex-id namespaces: users [0,U), posts [U, U+P), photos, gps, tags.
    val uBase = 0L; val pBase = nUsers.toLong; val phBase = pBase + nPosts
    val gBase = phBase + nPosts; val tBase = gBase + nGps
    def user() = uBase + rnd.nextInt(nUsers)
    (1 to n).map { t =>
      val e = rnd.nextInt(10) match {
        case 0 | 1 => // user follows user
          val (a, b) = distinctPair(rnd, nUsers)
          (a, "user", b, "user", "follows")
        case 2 | 3 | 4 => // user likes post
          (user(), "user", pBase + rnd.nextInt(nPosts), "post", "likes")
        case 5 | 6 => // user posts post
          (user(), "user", pBase + rnd.nextInt(nPosts), "post", "posts")
        case 7 => // post tagged-with tag
          (pBase + rnd.nextInt(nPosts), "post", tBase + rnd.nextInt(nTags), "tag", "tags")
        case 8 => // user at gps
          (user(), "user", gBase + rnd.nextInt(nGps), "gps", "at")
        case _ => // user uploads photo
          (user(), "user", phBase + rnd.nextInt(nPosts), "photo", "uploads")
      }
      StreamEdge(t.toLong, e._1, e._2, e._3, e._4, e._5, t.toLong)
    }.toVector
  }

  /** Traffic stream with one planted information-exfiltration pattern
    * (Fig 1): victim → web server (visit, download), victim ↔ C&C
    * (register, command, exfiltrate) with the strict timing chain
    * t1<t2<t3<t4<t5. Used by the case-study bench (Fig 22).
    */
  def trafficWithAttack(n: Int, nHosts: Int, plantAt: Int, seed: Long = 17): Vector[StreamEdge] = {
    require(plantAt + 5 <= n, "attack must fit in the stream")
    val base   = traffic(n, nHosts, seed = seed)
    val victim = (nHosts + 1).toLong // fresh hosts so the plant is unambiguous
    val web    = (nHosts + 2).toLong
    val cc     = (nHosts + 3).toLong
    val attack = Map(
      plantAt      -> ((victim, web, "p80/tcp")),   // t1 visit
      plantAt + 1  -> ((web, victim, "p80/tcp")),   // t2 malware download
      plantAt + 2  -> ((victim, cc, "p443/tcp")),   // t3 register
      plantAt + 3  -> ((cc, victim, "p443/tcp")),   // t4 command
      plantAt + 4  -> ((victim, cc, "p21/tcp")),    // t5 exfiltration
    )
    base.map { e =>
      attack.get(e.ts.toInt) match {
        case Some((s, d, l)) => e.copy(src = s, srcLabel = "IP", dst = d, dstLabel = "IP", label = l)
        case None            => e
      }
    }
  }

  /** The query graph of the Fig-1 attack pattern, with its timing chain. */
  def attackQuery: repro.core.QueryGraph = {
    import repro.core.{QueryEdge, QueryVertex}
    repro.core.QueryGraph(
      vertices = Seq(QueryVertex(0, "IP"), QueryVertex(1, "IP"), QueryVertex(2, "IP")),
      edges = Seq(
        QueryEdge(1, 0, 1, "p80/tcp"),  // visit
        QueryEdge(2, 1, 0, "p80/tcp"),  // download
        QueryEdge(3, 0, 2, "p443/tcp"), // register
        QueryEdge(4, 2, 0, "p443/tcp"), // command
        QueryEdge(5, 0, 2, "p21/tcp"),  // exfiltrate
      ),
      orderPairs = Set((1, 2), (2, 3), (3, 4), (4, 5)),
    )
  }
}
