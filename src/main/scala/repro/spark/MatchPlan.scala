package repro.spark

import repro.core.{QueryGraph, TimingSequence}

/** Definition 4 (a time-constrained match of `q`) as one list of
  * predicates over the positions of a prefix-connected build order —
  * built once here and only rendered by the relational matchers:
  * [[SnapshotMatcher]] and [[IncrementalDataflow]] to Catalyst,
  * [[MatchSql]] to DuckDB SQL.
  *
  * Position `p` binds the data edge of query edge `order(p)`; a [[MatchPlan.Ref]]
  * names one [[EdgeStreams.schema]] column of that edge.
  */
final class MatchPlan(q: QueryGraph) {
  import MatchPlan._

  /** Deterministic prefix-connected build order (ignores timing). */
  val order: IndexedSeq[Int] = TimingSequence.connectivityOrder(q)

  /** Predicates on position `p` alone: labels (wildcard `*` imposes none)
    * and no self-loop (query graphs have none).
    */
  val local: IndexedSeq[Seq[Pred]] = order.indices.map { p =>
    val qe = q.edgeById(order(p))
    Seq(Ref(p, "label") -> qe.label,
        Ref(p, "src_label") -> q.label(qe.src),
        Ref(p, "dst_label") -> q.label(qe.dst))
      .collect { case (r, l) if l != "*" => Is(r, l) } :+ Ne(Ref(p, "src"), Ref(p, "dst"))
  }

  /** Predicates between position `p` and every earlier position: vertex
    * consistency and injectivity against the bound prefix, data-edge
    * distinctness, and one `ts` comparison per `≺` pair.
    */
  val cross: IndexedSeq[Seq[Pred]] = order.indices.map { p =>
    val qe = q.edgeById(order(p))
    // query vertex -> the column that first binds it in the prefix
    val bound = (0 until p).flatMap { pp =>
      val pqe = q.edgeById(order(pp))
      Seq(pqe.src -> Ref(pp, "src"), pqe.dst -> Ref(pp, "dst"))
    }.distinctBy(_._1)
    val vertices = for {
      (qv, r)   <- Seq(qe.src -> Ref(p, "src"), qe.dst -> Ref(p, "dst"))
      (bqv, br) <- bound
    } yield if (bqv == qv) Eq(br, r) else Ne(br, r)
    val edges = (0 until p).flatMap { pp =>
      Seq(Ne(Ref(pp, "id"), Ref(p, "id"))) ++
        Option.when(q.precedes(order(pp), order(p)))(Lt(Ref(pp, "ts"), Ref(p, "ts"))) ++
        Option.when(q.precedes(order(p), order(pp)))(Lt(Ref(p, "ts"), Ref(pp, "ts")))
    }
    vertices ++ edges
  }

  /** `(queryEdgeId, position)` in ascending id order: the `m_<id>` columns. */
  val outputs: Seq[(Int, Int)] = order.zipWithIndex.sortBy(_._1)
}

object MatchPlan {

  /** Column `field` of the data edge bound at position `p`. */
  final case class Ref(p: Int, field: String)

  sealed trait Pred
  final case class Is(ref: Ref, literal: String) extends Pred
  final case class Eq(a: Ref, b: Ref)            extends Pred
  final case class Ne(a: Ref, b: Ref)            extends Pred
  final case class Lt(a: Ref, b: Ref)            extends Pred
}
