package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.join.JoinIndex

/** One edge of a join tree: the child relation joins the tuple accumulated
  * so far on `attrs` (equality on shared column names). For chain and
  * acyclic joins `attrs` always occur in the direct parent; for trees
  * derived from cyclic joins they may reference any ancestor attribute.
  */
final case class JoinEdge(attrs: Seq[String], child: JoinTree)

/** A rooted join tree. A chain join is a path-shaped tree. */
final case class JoinTree(rel: Rel, children: Seq[JoinEdge]) {
  def relations: Seq[Rel] = rel +: children.flatMap(_.child.relations)

  /** Pre-order list of edges — the traversal order used by walks, the
    * exact-weight sampler and the full-join fold, so they all agree.
    */
  def edgesPreOrder: Seq[JoinEdge] =
    children.flatMap(e => e +: e.child.edgesPreOrder)
}

/** A join in the union workload: a named join tree (plus, for cyclic
  * joins, the residual materialization that produced it).
  *
  * All joins in one workload have the same output schema (attribute set);
  * a result tuple's identity is its projection onto `outputCols`.
  */
sealed trait JoinSpec {
  def name: String
  def root: JoinTree

  def relations: Seq[Rel] = root.relations

  /** Output schema: attributes in pre-order, join attributes kept once. */
  lazy val outputCols: Seq[String] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[String]
    def visit(t: JoinTree): Unit = { out ++= t.rel.cols; t.children.foreach(e => visit(e.child)) }
    visit(root)
    out.toSeq
  }

  /** The materialized join result (ground truth / test oracle only — the
    * samplers never call this). Folded in pre-order with equality on the
    * shared attribute names of each edge.
    */
  lazy val fullJoin: DataFrame = {
    def fold(acc: DataFrame, t: JoinTree): DataFrame =
      t.children.foldLeft(acc) { (d, e) => fold(d.join(e.child.rel.df, e.attrs), e.child) }
    fold(root.rel.df, root).select(outputCols.map(col): _*)
  }

  /** The driver-side index that walks, membership probes and EW's DP run
    * on. Built once per join, on first use.
    */
  lazy val index: JoinIndex = JoinIndex(this)
}

/** A chain join J = R_1 ⋈_{a_1} R_2 ⋈_{a_2} … ⋈_{a_{m-1}} R_m. */
final case class ChainJoin(name: String, rels: Seq[Rel], joinAttrs: Seq[String]) extends JoinSpec {
  require(rels.size >= 1 && joinAttrs.size == rels.size - 1,
    s"chain $name: ${rels.size} relations need ${rels.size - 1} join attrs")

  lazy val root: JoinTree =
    rels.init.zip(joinAttrs).foldRight(JoinTree(rels.last, Nil)) {
      case ((r, a), sub) => JoinTree(r, Seq(JoinEdge(Seq(a), sub)))
    }
}

/** A general acyclic (tree-shaped) join. */
final case class AcyclicJoin(name: String, root: JoinTree) extends JoinSpec

/** A cyclic join, represented after breaking its cycles (§8.2): the
  * residual relations are joined into a single materialized relation
  * which then hangs off the skeleton tree, joining on every attribute
  * shared with the skeleton. Use [[CyclicJoin.apply]] to build one.
  */
final case class CyclicJoin(name: String, root: JoinTree, residual: Rel) extends JoinSpec

object CyclicJoin {

  /** Break a cyclic join into skeleton + residual. The caller picks the
    * residual relations (the paper follows Zhao et al. for the choice); we
    * materialize their join — residuals are chosen small — and attach the
    * result to the skeleton root, joining on all attributes the residual
    * shares with the skeleton.
    */
  def apply(name: String, skeleton: JoinTree, residualRels: Seq[Rel],
            residualJoinAttrs: Seq[String]): CyclicJoin = {
    val resDf = residualRels.tail.zip(residualJoinAttrs)
      .foldLeft(residualRels.head.df) { case (d, (r, a)) => d.join(r.df, a) }
    val residual  = Rel(s"${name}_residual", resDf)
    val skelAttrs = skeleton.relations.flatMap(_.cols).distinct
    val shared    = residual.cols.filter(skelAttrs.contains)
    require(shared.nonEmpty, s"cyclic $name: residual shares no attribute with skeleton")
    val root = skeleton.copy(children = skeleton.children :+ JoinEdge(shared, JoinTree(residual, Nil)))
    new CyclicJoin(name, root, residual)
  }
}
