package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers

/** Pure-math properties of Theorem 3 / Eq. 1 / cover inclusion–exclusion,
  * checked against brute-force set computation on random set systems.
  */
class KOverlapSpec extends AnyFunSuite with PropHelpers {

  test("binomials") {
    assert(KOverlap.choose(5, 2) == 10)
    assert(KOverlap.choose(5, 0) == 1)
    assert(KOverlap.choose(5, 5) == 1)
    assert(KOverlap.choose(4, 5) == 0)
    assert(KOverlap.choose(10, 3) == 120)
    assert(KOverlap.choose(0, 0) == 1)
    assert(KOverlap.choose(7, -1) == 0)
  }

  /** Random set system over a small universe. */
  private val setSystems: Gen[Vector[Set[Int]]] = for {
    n <- Gen.choose(1, 5)
    sets <- Gen.listOfN(n, Gen.nonEmptyListOf(Gen.choose(0, 60)).map(_.toSet))
  } yield sets.toVector

  private def exactO(sets: Vector[Set[Int]])(delta: Set[Int]): Double =
    delta.map(sets).reduceLeft(_ intersect _).size.toDouble

  test("Theorem 3: a_j^k matches brute-force k-overlap counts") {
    forAllN(setSystems) { sets =>
      val n = sets.size
      for (j <- 0 until n) {
        val a = KOverlap.aOverlaps(n, j, exactO(sets))
        for (k <- 1 to n) {
          val expect = sets(j).count { e =>
            sets.count(_.contains(e)) == k && sets(j).contains(e)
          }
          assert(math.abs(a(k - 1) - expect) < 1e-9,
            s"A_$j^$k: got ${a(k - 1)}, want $expect, sets=$sets")
        }
      }
    }
  }

  test("Eq. 1: union size by k-overlaps equals |∪ sets|") {
    forAllN(setSystems) { sets =>
      val u = sets.reduceLeft(_ union _).size.toDouble
      assert(math.abs(KOverlap.unionSizeByK(sets.size, exactO(sets)) - u) < 1e-9)
    }
  }

  test("cover sizes match brute-force J_i \\ union-of-prior and sum to |U|") {
    forAllN(setSystems) { sets =>
      val covers = KOverlap.coverSizes(sets.size, exactO(sets))
      var seen = Set.empty[Int]
      sets.zipWithIndex.foreach { case (s, i) =>
        val expect = (s -- seen).size.toDouble
        assert(math.abs(covers(i) - expect) < 1e-9, s"cover $i of $sets")
        seen ++= s
      }
      val u = sets.reduceLeft(_ union _).size.toDouble
      assert(math.abs(covers.sum - u) < 1e-9)
    }
  }

  test("both union-size formulas agree on exact inputs") {
    forAllN(setSystems) { sets =>
      val o = exactO(sets) _
      assert(math.abs(
        KOverlap.unionSizeByK(sets.size, o) - KOverlap.coverSizes(sets.size, o).sum) < 1e-9)
    }
  }

  test("clamping floors negative recursion levels at zero") {
    // Deliberately inconsistent overlaps: pair overlap larger than a set.
    val o: Set[Int] => Double = {
      case s if s.size == 1 => 10.0
      case s if s.size == 2 => 25.0
      case _                => 0.0
    }
    val a = KOverlap.aOverlaps(2, 0, o)
    assert(a.forall(_ >= 0.0))
    assert(KOverlap.coverSizes(2, o).forall(_ >= 0.0))
  }

  test("single join: cover and union reduce to |J|") {
    val o: Set[Int] => Double = _ => 42.0
    assert(KOverlap.unionSizeByK(1, o) == 42.0)
    assert(KOverlap.coverSizes(1, o).toSeq == Seq(42.0))
  }
}
