package repro.core.join

import org.apache.spark.sql.Row
import repro.core._
import repro.core.walk.{JTuple, WanderJoin}

import scala.collection.mutable.ArrayBuffer

/** The driver-side index of a join ([[JoinSpec.index]]), built from its
  * relations' [[Rel.rows]] and [[Rel.groups]], so it starts no Spark job
  * once they are collected. It holds the tree's nodes in pre-order with
  * their rows, and its edges in pre-order with the child's key groups.
  * Every column (an edge's key, a canonical output column) is read from
  * the first node in pre-order that has it: for a cyclic join's residual
  * edge that may be an earlier sibling, not the parent. Wander-join walks
  * (§6.1), EO and membership probes run on it; EW's DP reads its groups.
  */
final class JoinIndex private (val rels: IndexedSeq[Rel], val edges: IndexedSeq[JoinIndex.Edge],
                               out: IndexedSeq[(Int, Int)], canon: Seq[String]) {

  /** The rows of every node, in pre-order. */
  val rows: IndexedSeq[Array[Row]] = rels.map(_.rows)

  /** The canonical tuple of the rows `picked` (a row id per node). */
  def tuple(picked: Array[Int]): IndexedSeq[Any] =
    out.map { case (node, c) => rows(node)(picked(node)).get(c) }

  /** One walk: a uniform root row, then on every edge a uniform row of the
    * child's group that joins the tuple so far, dividing p(t) by the
    * group's size. None when the walk dies: an empty root, a null key or a
    * key with no group.
    */
  def walk(rng: java.util.Random): Option[JTuple] = {
    if (rows(0).isEmpty) return None
    val picked = new Array[Int](rows.size)
    picked(0) = rng.nextInt(rows(0).length)
    var p = 1.0 / rows(0).length
    var i = 0
    while (i < edges.size) {
      val e = edges(i)
      val k = Rel.key(e.keyAt.map { case (node, c) => rows(node)(picked(node)).get(c) })
      val g = if (k == null) null else e.groups.getOrElse(k, null)
      if (g == null) return None
      picked(e.child) = g(rng.nextInt(g.length))
      p /= g.length
      i += 1
    }
    Some(JTuple(tuple(picked), p))
  }

  /** Per relation, the canonical positions of its columns and its rows'
    * values; built on the first probe.
    */
  private lazy val members: IndexedSeq[(Seq[Int], Set[Seq[Any]])] =
    rels.indices.map(n => (rels(n).cols.map(canon.indexOf), rows(n).iterator.map(_.toSeq).toSet))

  private val keyCols: Seq[Int] = edges.flatMap(_.attrs).distinct.map(canon.indexOf)

  /** Whether the canonical tuple `values` is a tuple of the join: no edge
    * attribute is null (an equi-join never matches one), and its projection
    * onto every relation is a row of it. Valid because every attribute of
    * every relation is an output column.
    */
  def contains(values: IndexedSeq[Any]): Boolean =
    keyCols.forall(values(_) != null) &&
      members.forall { case (at, set) => set.contains(at.map(values)) }
}

object JoinIndex {

  /** Edge `parent → child` (nodes in pre-order) on `attrs`: `keyAt` places
    * each attribute in the tuple joined before the child, and `groups` is
    * the child's [[Rel.groups]] on `attrs`.
    */
  final class Edge(val parent: Int, val child: Int, val attrs: Seq[String],
                   val keyAt: Seq[(Int, Int)], val groups: Map[Any, Array[Int]])

  def apply(join: JoinSpec): JoinIndex = {
    val rels = ArrayBuffer.empty[Rel]
    val edges = ArrayBuffer.empty[Edge]
    def locate(c: String): (Int, Int) = {
      val node = rels.indexWhere(_.cols.contains(c))
      require(node >= 0, s"join ${join.name}: column $c is not in the tuple joined so far")
      (node, rels(node).cols.indexOf(c))
    }
    def visit(t: JoinTree): Unit = {
      val me = rels.size
      rels += t.rel
      t.children.foreach { e =>
        edges += new Edge(me, rels.size, e.attrs, e.attrs.map(locate), e.child.rel.groups(e.attrs))
        visit(e.child)
      }
    }
    visit(join.root)
    val canon = WanderJoin.canonCols(join)
    new JoinIndex(rels.toIndexedSeq, edges.toIndexedSeq, canon.map(locate).toIndexedSeq, canon)
  }
}
