package repro.core.histogram

import repro.core._

/** A join rewritten as a chain for the K-recursion of Theorem 4.
  *
  * `rels(i)` joins `rels(i+1)` on `hopAttrs(i)`. A piece is the original
  * relation it was split from (a projection keeps its degrees and its
  * count), or a virtual relation materialized from a path sub-join
  * (§8.1). Two adjacent pieces split from the same relation form a *fake
  * join* (M = 1 in the recursion).
  *
  * Produced either directly from structurally-aligned chain joins (§5.1 —
  * no splitting needed) or by the splitting method over a standard
  * template (§5.2/§8.1).
  */
final case class ChainForm(rels: Seq[Rel], hopAttrs: Seq[String]) {
  require(hopAttrs.size == math.max(0, rels.size - 1))
  def hops: Int = hopAttrs.size
  def isFake(i: Int): Boolean = rels(i) eq rels(i + 1)

  /** The same chain processed from the other end — an equally valid
    * orientation for the K recursion of Theorem 4.
    */
  def reversed: ChainForm = ChainForm(rels.reverse, hopAttrs.reverse)
}

object ChainForm {

  /** §5.1 direct form: the chain's own relations, no splitting. */
  def direct(j: ChainJoin): ChainForm =
    ChainForm(j.rels, j.joinAttrs)

  /** True when the §5.1 base case applies to the whole collection: all
    * chains, equal length, positionally identical schemas and join attrs.
    */
  def aligned(joins: Seq[JoinSpec]): Boolean = joins.forall(_.isInstanceOf[ChainJoin]) && {
    val chains = joins.map(_.asInstanceOf[ChainJoin])
    val h = chains.head
    chains.forall { c =>
      c.rels.size == h.rels.size && c.joinAttrs == h.joinAttrs &&
        c.rels.zip(h.rels).forall { case (a, b) => a.cols.toSet == b.cols.toSet }
    }
  }
}

/** §5.2 splitting + §8.1 standard-template selection.
  *
  * A template is an ordering B_1..B_m of the (shared) output attributes;
  * the template relations are (B_1,B_2), (B_2,B_3), …. The template is
  * chosen to minimize Σ_adjacent score(B_i, B_{i+1}) where
  * score(A,A') = Σ_j Dist_j(A,A') is the total join-tree distance between
  * the relations holding A and A' (§8.1.1): co-located pairs split for
  * free, far-apart pairs force lossy sub-join estimation.
  */
object Splitter {

  /** Tree distance in join `j` between the closest relations containing
    * `a` and `b` (0 when some relation contains both).
    */
  def dist(j: JoinSpec, a: String, b: String): Int = {
    val nodes = collectNodes(j.root)
    val withA = nodes.zipWithIndex.collect { case ((r, _), i) if r.cols.contains(a) => i }
    val withB = nodes.zipWithIndex.collect { case ((r, _), i) if r.cols.contains(b) => i }
    val d = treeDistances(nodes)
    withA.flatMap(i => withB.map(k => d(i)(k))).min
  }

  def score(joins: Seq[JoinSpec], a: String, b: String): Int =
    joins.map(dist(_, a, b)).sum

  /** Minimum-score attribute ordering (Held–Karp path DP for ≤ 14 attrs,
    * greedy nearest-neighbour beyond).
    */
  def bestTemplate(joins: Seq[JoinSpec]): Seq[String] = {
    val attrs = joins.head.outputCols
    require(joins.forall(_.outputCols.toSet == attrs.toSet),
      "all joins in a union must share the output schema")
    val m = attrs.size
    if (m <= 1) return attrs
    val s = Array.tabulate(m, m)((i, k) => if (i == k) 0 else score(joins, attrs(i), attrs(k)))
    val order = if (m <= 14) heldKarpPath(m, s) else greedyPath(m, s)
    order.map(attrs)
  }

  /** Split `join` along `template` into two-attribute pieces.
    *
    * Each pair (B_i, B_{i+1}) becomes π over a relation containing both
    * when one exists, kept as that relation; otherwise the pair is
    * *virtual*: we materialize the partial join along the tree path
    * between the closest relations holding B_i and B_{i+1} (the paper
    * estimates this sub-join; we compute it exactly — still only a short
    * partial join, never the full join).
    */
  def split(join: JoinSpec, template: Seq[String]): ChainForm = {
    val nodes  = collectNodes(join.root)
    val dists  = treeDistances(nodes)
    val pieces = template.sliding(2).map { pair =>
      val (a, b) = (pair(0), pair(1))
      nodes.map(_._1).find(r => r.cols.contains(a) && r.cols.contains(b))
        .getOrElse(pathJoin(join.name, nodes, dists, a, b))
    }.toSeq
    ChainForm(pieces, template.drop(1).dropRight(1))
  }

  // ---- internals ----------------------------------------------------------

  /** (relation, parentIndex) in pre-order; root's parent is -1. */
  private def collectNodes(root: JoinTree): Seq[(Rel, Int)] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[(Rel, Int)]
    def visit(t: JoinTree, parent: Int): Unit = {
      out += ((t.rel, parent))
      val me = out.size - 1
      t.children.foreach(e => visit(e.child, me))
    }
    visit(root, -1)
    out.toSeq
  }

  private def treeDistances(nodes: Seq[(Rel, Int)]): Array[Array[Int]] = {
    val n = nodes.size
    val adj = Array.fill(n)(List.empty[Int])
    nodes.zipWithIndex.foreach { case ((_, p), i) =>
      if (p >= 0) { adj(i) ::= p; adj(p) ::= i }
    }
    Array.tabulate(n) { src =>
      val d = Array.fill(n)(Int.MaxValue); d(src) = 0
      var frontier = List(src)
      while (frontier.nonEmpty) {
        val next = for (u <- frontier; v <- adj(u) if d(v) == Int.MaxValue) yield { d(v) = d(u) + 1; v }
        frontier = next
      }
      d
    }
  }

  /** The join along the tree path between the closest relations
    * containing `a` and `b`, as a relation of join `joinName`.
    */
  private def pathJoin(joinName: String, nodes: Seq[(Rel, Int)], d: Array[Array[Int]],
                       a: String, b: String): Rel = {
    val ia = nodes.indexWhere(_._1.cols.contains(a))
    val cands = nodes.zipWithIndex.collect { case ((r, _), i) if r.cols.contains(b) => i }
    val ib = cands.minBy(i => d(ia)(i))
    def ancestors(i: Int): List[Int] =
      if (i < 0) Nil else i :: ancestors(nodes(i)._2)
    val upA = ancestors(ia)
    val upB = ancestors(ib)
    val common = upA.find(upB.contains).get
    val path = (upA.takeWhile(_ != common) :+ common) ++ upB.takeWhile(_ != common).reverse
    val dfs = path.map(nodes(_)._1.df)
    val joined = dfs.reduceLeft { (l, r) =>
      val shared = l.columns.intersect(r.columns).toSeq
      l.join(r, shared)
    }
    Rel(s"$joinName/$a~$b", joined)
  }

  private def heldKarpPath(m: Int, s: Array[Array[Int]]): Seq[Int] = {
    val full = (1 << m) - 1
    val cost = Array.fill(1 << m, m)(Int.MaxValue / 2)
    val prev = Array.fill(1 << m, m)(-1)
    for (i <- 0 until m) cost(1 << i)(i) = 0
    for (mask <- 1 to full; last <- 0 until m if (mask & (1 << last)) != 0
         && cost(mask)(last) < Int.MaxValue / 2;
         nxt <- 0 until m if (mask & (1 << nxt)) == 0) {
      val c = cost(mask)(last) + s(last)(nxt)
      val nm = mask | (1 << nxt)
      if (c < cost(nm)(nxt)) { cost(nm)(nxt) = c; prev(nm)(nxt) = last }
    }
    var last = (0 until m).minBy(cost(full))
    var mask = full
    val out = scala.collection.mutable.ListBuffer.empty[Int]
    while (last >= 0) {
      out.prepend(last)
      val p = prev(mask)(last); mask ^= (1 << last); last = p
    }
    out.toSeq
  }

  private def greedyPath(m: Int, s: Array[Array[Int]]): Seq[Int] = {
    val visited = scala.collection.mutable.Set(0)
    val out = scala.collection.mutable.ListBuffer(0)
    while (out.size < m) {
      val next = (0 until m).filterNot(visited).minBy(s(out.last))
      visited += next; out += next
    }
    out.toSeq
  }
}
