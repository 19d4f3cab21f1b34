package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.core.QueryGraph
import repro.spark.MatchPlan._

/** Declarative time-constrained subgraph matching over a snapshot
  * DataFrame — the Catalyst reference implementation.
  *
  * One self-join per query edge in the [[MatchPlan]] build order: each
  * leaf is filtered by its position's own predicates and joined on the
  * predicates against the bound prefix (Definition 4 expressed
  * relationally). Output: one row per match, one `m_<queryEdgeId>` column
  * carrying the bound data-edge id.
  */
object SnapshotMatcher {

  /** All time-constrained matches of `q` in `edges` (a snapshot). */
  def matches(edges: DataFrame, q: QueryGraph): DataFrame = {
    val plan = new MatchPlan(q)
    def leaf(p: Int) = renamed(edges, p).where(column(plan.local(p)))
    project((1 until plan.order.length).foldLeft(leaf(0)) { (df, p) =>
      df.join(leaf(p), column(plan.cross(p)))
    }, plan)
  }

  /** Conjunction of `preds` over the columns `e<p>_<field>` of [[renamed]]. */
  private[spark] def column(preds: Seq[Pred]): Column = {
    def c(r: Ref) = col(s"e${r.p}_${r.field}")
    preds.map {
      case Is(r, l) => c(r) === lit(l)
      case Eq(a, b) => c(a) === c(b)
      case Ne(a, b) => c(a) =!= c(b)
      case Lt(a, b) => c(a) < c(b)
    }.reduce(_ && _)
  }

  /** `edges` with every column prefixed for position `p`. */
  private[spark] def renamed(edges: DataFrame, p: Int): DataFrame =
    edges.select(edges.columns.map(c => col(c).as(s"e${p}_$c")).toIndexedSeq: _*)

  /** The `m_<queryEdgeId>` columns of complete rows of `plan`. */
  private[spark] def project(df: DataFrame, plan: MatchPlan): DataFrame =
    df.select(plan.outputs.map { case (qeid, p) => col(s"e${p}_id").as(s"m_$qeid") }: _*)
}
