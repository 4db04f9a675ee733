package repro.workloads

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** A union-of-joins workload: the joins plus the canonical output order. */
final case class UnionWorkload(name: String, joins: Seq[JoinSpec]) {
  val canonCols: Seq[String] = joins.head.outputCols.sorted
}

/** The three TPC-H-derived union workloads of §9, generated synthetically
  * (TPCH-DBGen is substituted by deterministic generators — see DESIGN.md).
  *
  * Scale: `sf` follows the repo convention (SF=0.01 ≈ unit tests,
  * SF=0.1 ≈ benchmarks); one *unit* is max(40, 10000·sf) rows and relation
  * cardinalities are fixed multiples of it, chosen to keep chain fanouts
  * close to TPC-H's (≈3 orders/customer, ≈3.3 lineitems/order).
  */
object UnionWorkloads {

  private def unit(sf: Double): Long = math.max(40L, math.round(10000 * sf))

  /** UQ1 — five equi-length chain joins over nation ⋈ supplier ⋈ customer
    * ⋈ orders ⋈ lineitem. The four upstream relations are shared; each
    * shared lineitem row belongs to a random non-empty subset of the five
    * joins (drawn per row), and each join also holds private lineitems.
    * `overlap` is the fraction of shared lineitem rows — the paper's
    * overlap scale P%.
    */
  def uq1(spark: SparkSession, sf: Double = 0.01, overlap: Double = 0.2,
          nJoins: Int = 5, seed: Long = 11): UnionWorkload = {
    val u = unit(sf)
    val nNation = 8L
    val nSupp = math.max(10L, u / 2)
    val nCust = 2 * u
    val nOrd = 6 * u
    val nLine = 20 * u
    // A shared-pool row reaches a given join iff its mask bit is set,
    // probability 2^{n-1}/(2^n − 1); size the pool so each join sees
    // ≈ overlap·nLine shared rows and relation cardinality stays ≈ nLine
    // for every overlap scale (the paper varies sharing, not size).
    val pBit = math.pow(2, nJoins - 1) / (math.pow(2, nJoins) - 1)
    val nShared = math.round(nLine * overlap / pBit)
    val nPriv = math.max(0L, nLine - math.round(nLine * overlap))

    val nation = Rel("nation", spark.range(nNation).select(
      col("id").as("nationkey"),
      concat(lit("N"), col("id")).as("n_comment")))
    val supplier = Rel("supplier", spark.range(1, nSupp + 1).select(
      col("id").as("suppkey"),
      floor(rand(seed + 1) * nNation).cast("long").as("nationkey"),
      concat(lit("S"), col("id")).as("s_comment")))
    val customer = Rel("customer", spark.range(1, nCust + 1).select(
      col("id").as("custkey"),
      floor(rand(seed + 2) * nNation).cast("long").as("nationkey"),
      concat(lit("C"), col("id")).as("c_comment")))
    val orders = Rel("orders", spark.range(1, nOrd + 1).select(
      col("id").as("orderkey"),
      (floor(rand(seed + 3) * nCust) + 1).cast("long").as("custkey"),
      concat(lit("O"), col("id")).as("o_comment")))

    val maskMax = (1 << nJoins) - 1
    val sharedLine = Rel.cached(spark.range(nShared).select(
      col("id").as("lineid"),
      (floor(rand(seed + 4) * nOrd) + 1).cast("long").as("orderkey"),
      (floor(rand(seed + 5) * 50) + 1).cast("long").as("l_qty"),
      lit("S").as("l_tag"),
      (floor(rand(seed + 6) * maskMax) + 1).cast("int").as("__mask")))

    val joins = (0 until nJoins).map { j =>
      val shared = sharedLine
        .filter((col("__mask").bitwiseAND(1 << j)) =!= 0)
        .drop("__mask")
      val priv = spark.range(nPriv).select(
        (col("id") + 1000000000L * (j + 1)).as("lineid"),
        (floor(rand(seed + 7 + j) * nOrd) + 1).cast("long").as("orderkey"),
        (floor(rand(seed + 70 + j) * 50) + 1).cast("long").as("l_qty"),
        lit(s"J$j").as("l_tag"))
      val lineitem = Rel(s"lineitem_$j", shared.unionByName(priv))
      ChainJoin(s"UQ1_J$j", Seq(nation, supplier, customer, orders, lineitem),
        Seq("nationkey", "nationkey", "custkey", "orderkey"))
    }
    UnionWorkload("UQ1", joins)
  }

  /** UQ2 — three chain joins over region ⋈ nation ⋈ supplier ⋈ partsupp ⋈
    * part on *identical* data, distinguished only by overlapping selection
    * predicates on p_size (pushed down to the part relation, §8.3) — the
    * paper's large-overlap workload.
    */
  def uq2(spark: SparkSession, sf: Double = 0.01, seed: Long = 23): UnionWorkload = {
    val u = unit(sf)
    val nRegion = 5L
    val nNation = 10L
    val nSupp = math.max(10L, u / 2)
    val nPs = 8 * u
    val nPart = 2 * u

    val region = Rel("region", spark.range(nRegion).select(
      col("id").as("regionkey"),
      concat(lit("R"), col("id")).as("r_comment")))
    val nation = Rel("nation2", spark.range(nNation).select(
      col("id").as("nationkey"),
      (col("id") % nRegion).as("regionkey"),
      concat(lit("N"), col("id")).as("n_comment")))
    val supplier = Rel("supplier2", spark.range(1, nSupp + 1).select(
      col("id").as("suppkey"),
      floor(rand(seed + 1) * nNation).cast("long").as("nationkey"),
      concat(lit("S"), col("id")).as("s_comment")))
    val partsupp = Rel("partsupp", spark.range(nPs).select(
      col("id").as("psid"),
      (floor(rand(seed + 2) * nSupp) + 1).cast("long").as("suppkey"),
      (floor(rand(seed + 3) * nPart) + 1).cast("long").as("partkey"),
      (floor(rand(seed + 4) * 1000) + 1).cast("long").as("ps_avail")))
    val part = Rel.cached(spark.range(1, nPart + 1).select(
      col("id").as("partkey"),
      (floor(rand(seed + 5) * 100) + 1).cast("long").as("p_size"),
      concat(lit("P"), col("id")).as("p_comment")))

    val predicates: Seq[(String, DataFrame)] = Seq(
      "p1" -> part.filter(col("p_size") <= 60),
      "p2" -> part.filter(col("p_size") >= 30 && col("p_size") <= 80),
      "p3" -> part.filter(col("p_size") >= 50))

    val joins = predicates.zipWithIndex.map { case ((pname, pdf), j) =>
      ChainJoin(s"UQ2_J$j", Seq(region, nation, supplier, partsupp, Rel(s"part_$pname", pdf)),
        Seq("regionkey", "nationkey", "suppkey", "partkey"))
    }
    UnionWorkload("UQ2", joins)
  }

  /** UQ3 — one acyclic (star) join and two chain joins over vertically and
    * horizontally split customer/orders (the splitting-method workload):
    *
    *  - J0: custbase(custkey,nationkey) ⋈ custbal(custkey,acctbal)
    *        ⋈ orders — a star on custkey, customers in H0;
    *  - J1: customer ⋈ orders — plain chain, customers in H1;
    *  - J2: custpart(custkey,nationkey) ⋈ denormalized
    *        orders(oid,custkey,totalprice,acctbal) — chain over a
    *        denormalized relation, customers in H2.
    *
    * The horizontal ranges are thirds of the custkey space widened by the
    * `overlap` scale: overlap=0 → disjoint thirds, overlap=1 → ranges
    * covering most of the space (pairwise and triple overlaps).
    */
  def uq3(spark: SparkSession, sf: Double = 0.01, overlap: Double = 0.5,
          seed: Long = 31): UnionWorkload = {
    val u = unit(sf)
    val nCust = 2 * u
    val nOrd = 6 * u
    val t = overlap / 3.0

    val customer = Rel.cached(spark.range(1, nCust + 1).select(
      col("id").as("custkey"),
      floor(rand(seed + 1) * 10).cast("long").as("nationkey"),
      (floor(rand(seed + 2) * 10000) + 1).cast("long").as("acctbal")))
    val orders = Rel.cached(spark.range(1, nOrd + 1).select(
      col("id").as("oid"),
      (floor(rand(seed + 3) * nCust) + 1).cast("long").as("custkey"),
      (floor(rand(seed + 4) * 1000) + 1).cast("long").as("totalprice")))

    def hRange(lo: Double, hi: Double) =
      col("custkey") > math.max(0L, (nCust * lo).toLong) &&
        col("custkey") <= math.min(nCust, (nCust * hi).toLong)
    val (h0lo, h0hi) = (0.0, 1.0 / 3 + t)
    val (h1lo, h1hi) = (1.0 / 3 - t / 2, 2.0 / 3 + t / 2)
    val (h2lo, h2hi) = (2.0 / 3 - t, 1.0)

    // J0 — acyclic star on the vertical split of customer.
    val custbase = Rel("custbase", customer.filter(hRange(h0lo, h0hi)).select("custkey", "nationkey"))
    val custbal = Rel("custbal", customer.filter(hRange(h0lo, h0hi)).select("custkey", "acctbal"))
    val ordersA = Rel("ordersA", orders)
    val j0 = AcyclicJoin("UQ3_J0", JoinTree(custbase, Seq(
      JoinEdge(Seq("custkey"), JoinTree(custbal, Nil)),
      JoinEdge(Seq("custkey"), JoinTree(ordersA, Nil)))))

    // J1 — plain chain.
    val cust1 = Rel("cust1", customer.filter(hRange(h1lo, h1hi)))
    val orders1 = Rel("orders1", orders)
    val j1 = ChainJoin("UQ3_J1", Seq(cust1, orders1), Seq("custkey"))

    // J2 — chain over a denormalized orders relation.
    val custpart = Rel("custpart", customer.filter(hRange(h2lo, h2hi)).select("custkey", "nationkey"))
    val ordersDen = Rel("ordersDen",
      orders.join(customer.filter(hRange(h2lo, h2hi)).select("custkey", "acctbal"), "custkey")
        .select("oid", "custkey", "totalprice", "acctbal"))
    val j2 = ChainJoin("UQ3_J2", Seq(custpart, ordersDen), Seq("custkey"))

    UnionWorkload("UQ3", Seq(j0, j1, j2))
  }
}
