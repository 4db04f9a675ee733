package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.histogram.HistogramOverlap
import repro.core.join.ExactWeightSampler
import repro.core.union.{CoverBook, UnionStats}
import repro.core.walk.{JTuple, WalkBatch, WalkStats}

/** Spark-free properties: JTuple identity, WalkBatch estimators,
  * UnionParams algebra, monotonize, cover bookkeeping.
  */
class PureSpec extends AnyFunSuite with PropHelpers {

  test("JTuple key is injective on values and stable") {
    val a = JTuple(IndexedSeq(1L, "x", 2.0), 0.1)
    val b = JTuple(IndexedSeq(1L, "x", 2.0), 0.9) // p does not affect identity
    val c = JTuple(IndexedSeq(1L, "y", 2.0), 0.1)
    assert(a.key == b.key)
    assert(a.key != c.key)
  }

  test("JTuple key distinguishes adjacent-field ambiguity") {
    val a = JTuple(IndexedSeq("ab", "c"), 0.1)
    val b = JTuple(IndexedSeq("a", "bc"), 0.1)
    assert(a.key != b.key)
  }

  test("WalkBatch HT estimate: all failures → 0; no failures → mean of 1/p") {
    assert(WalkBatch(IndexedSeq.empty, 100).sizeEstimate == 0.0)
    val ts = IndexedSeq(JTuple(IndexedSeq(1L), 0.25), JTuple(IndexedSeq(2L), 0.5))
    assert(WalkBatch(ts, 2).sizeEstimate == 3.0) // (4 + 2)/2
    assert(WalkBatch(ts, 4).sizeEstimate == 1.5) // two failures dilute
  }

  test("WalkStats matches WalkBatch on the same data") {
    val ts = IndexedSeq(0.25, 0.5, 0.125).map(p => JTuple(IndexedSeq(1L), p))
    val wb = WalkBatch(ts, 5)
    val s = new WalkStats
    ts.foreach(t => s.add(1.0 / t.p))
    (0 until 2).foreach(_ => s.add(0.0))
    assert(math.abs(s.mean - wb.sizeEstimate) < 1e-12)
  }

  test("CoverBook: new key, same-owner copy, later duplicate, revision") {
    val stats = new UnionStats
    val book = new CoverBook(stats)
    val a = JTuple(IndexedSeq("a"), 0.5)
    val b = JTuple(IndexedSeq("b"), 0.5)
    assert(book.offer(a, 1))  // new key: join 1 owns a
    assert(book.offer(a, 1))  // same-owner copy
    assert(book.offer(b, 0))  // new key: join 0 owns b
    assert(!book.offer(b, 1)) // b drawn from a later join: rejected
    assert(book.tuples.map { case (t, j) => (t.values, j) } ==
      Seq(a.values -> 1, a.values -> 1, b.values -> 0))
    assert(book.offer(a, 0))  // revision: both copies under join 1 go
    assert(book.tuples.map { case (t, j) => (t.values, j) } == Seq(b.values -> 0, a.values -> 0))
    assert(book.owners == Map(a.values -> 0, b.values -> 0))
    assert(stats.accepted == 4 && stats.rejectedDup == 1)
    assert(stats.revisions == 1 && stats.revisionRemoved == 2)
  }

  test("CoverBook: retain keeps owners; redraw gives up after MaxRedraws") {
    val stats = new UnionStats
    val book = new CoverBook(stats)
    val a = JTuple(IndexedSeq("a"), 0.5)
    val b = JTuple(IndexedSeq("b"), 0.5)
    book.offer(a, 0); book.offer(b, 1)
    assert(book.retain(_._2 == 0) == 1)
    assert(book.size == 1 && book.owners == Map(a.values -> 0, b.values -> 1))
    assert(!book.redraw(1)(a)) // a is owned by the earlier join 0
    assert(stats.rejectedDup == CoverBook.MaxRedraws)
    assert(book.redraw(1)(b) && book.size == 2)
    assert(CoverBook.pick(IndexedSeq(0.25, 0.75, 0.999), 0.5) == 1)
    assert(CoverBook.pick(IndexedSeq(0.25, 0.75, 0.999), 0.9995) == 2)
  }

  test("CoverBook: a redraw that gives up is counted") {
    val stats = new UnionStats
    val book = new CoverBook(stats)
    val a = JTuple(IndexedSeq("a"), 0.5)
    book.offer(a, 0)
    assert(!book.redraw(1)(a)) // every draw is owned by the earlier join 0
    assert(stats.redrawGiveUps == 1)
    assert(book.redraw(0)(a) && stats.redrawGiveUps == 1)
  }

  test("EW Cdf: u at the total picks the last positive entry; zero weights never") {
    val w = Array(0.0, 2.0, 0.0, 3.0, 0.0)
    val cdf = new ExactWeightSampler.Cdf(w.indices.toArray, w)
    assert(cdf.total == 5.0)
    assert(cdf.pick(cdf.total) == 3)
    assert(cdf.pick(0.0) == 1 && cdf.pick(1.999) == 1 && cdf.pick(2.0) == 3)
    (0 to 1000).foreach(i => assert(w(cdf.pick(cdf.total * i / 1000)) > 0))
    assert(new ExactWeightSampler.Cdf(Array(4, 2), Array(0, 0, 1.0, 0, 1.0)).pick(2.0) == 2)
  }

  private val paramGen: Gen[UnionParams] = for {
    n <- Gen.choose(1, 4)
    sets <- Gen.listOfN(n, Gen.nonEmptyListOf(Gen.choose(0, 40)).map(_.toSet))
  } yield {
    val o = (d: Set[Int]) => d.map(sets).reduceLeft(_ intersect _).size.toDouble
    UnionParams(n, (1 to n).flatMap(k =>
      (0 until n).combinations(k).map(ix => ix.toSet -> o(ix.toSet))).toMap)
  }

  test("UnionParams: alphas are a probability distribution") {
    forAllN(paramGen) { p =>
      assert(math.abs(p.alphas.sum - 1.0) < 1e-9)
      assert(p.alphas.forall(a => a >= -1e-12 && a <= 1 + 1e-12))
    }
  }

  test("UnionParams: both union sizes agree on exact set systems") {
    forAllN(paramGen) { p =>
      assert(math.abs(p.unionSize - p.unionSizeByK) < 1e-9)
    }
  }

  test("UnionParams: ratios dominate alphas (|J_j| ≥ |J'_j|)") {
    forAllN(paramGen) { p =>
      p.ratios.zip(p.alphas).foreach { case (r, a) => assert(r >= a - 1e-12) }
    }
  }

  test("monotonize is idempotent") {
    forAllN(paramGen) { p =>
      val once = HistogramOverlap.monotonize(p.n, p.overlaps)
      val twice = HistogramOverlap.monotonize(p.n, once)
      assert(once == twice)
    }
  }

  test("monotonize never increases any overlap") {
    forAllN(paramGen) { p =>
      val inflated = p.overlaps.map { case (k, v) =>
        k -> (if (k.size > 1) v * 10 + 5 else v)
      }
      val m = HistogramOverlap.monotonize(p.n, inflated)
      m.foreach { case (k, v) => assert(v <= inflated(k) + 1e-9) }
      // supersets never exceed subset minima
      for ((k, v) <- m if k.size > 1; sub <- k.subsets(k.size - 1))
        assert(v <= m(sub) + 1e-9)
    }
  }
}
