// Engine fixpoints on value-carrying semirings (ℝ+, ℕ, TropNat, Trop):
// grid closures checked against the grid's closed form, residual
// filters checked against the grounded engine, and a disjunct whose
// residual is false at compile time.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/datalogo.h"

namespace datalogo {
namespace {

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

/// C(n, k), exact for the grid sizes below.
uint64_t Binomial(int n, int k) {
  uint64_t c = 1;
  for (int i = 1; i <= k; ++i) c = c * static_cast<uint64_t>(n - k + i) / i;
  return c;
}

/// Runs the TC program over GridGraph(side, side) (edges right and down)
/// by Naive and, where ⊖ exists, SemiNaive, and checks T against the
/// grid's closed form: b ≠ a is reachable from a iff it lies weakly
/// down-right of a, by C(dr + dc, dr) paths of dr + dc edges each.
/// `expect(len, paths)` is T(a, b) for such a pair; every other pair must
/// be outside the support.
template <NaturallyOrderedSemiring P, typename Lift, typename Expect>
void ExpectGridClosure(Lift&& lift, Expect&& expect) {
  constexpr int kSide = 8;
  Domain dom;
  auto prog = ParseProgram(kTc, &dom).value();
  Graph g = GridGraph(kSide, kSide);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1000);
  ASSERT_TRUE(naive.converged);
  const Relation<P>& t = naive.idb.idb(prog.FindPredicate("T"));
  for (int a = 0; a < kSide * kSide; ++a) {
    for (int b = 0; b < kSide * kSide; ++b) {
      const int dr = b / kSide - a / kSide;
      const int dc = b % kSide - a % kSide;
      const typename P::Value want =
          a != b && dr >= 0 && dc >= 0
              ? expect(dr + dc, Binomial(dr + dc, dr))
              : P::Zero();
      EXPECT_TRUE(P::Eq(t.Get({ids[a], ids[b]}), want)) << a << "->" << b;
    }
  }
  if constexpr (CompleteDistributiveDioid<P>) {
    auto semi = engine.SemiNaive(1000);
    ASSERT_TRUE(semi.converged);
    EXPECT_TRUE(semi.idb.Equals(naive.idb));
  }
}

TEST(EngineValue, TropNatGridHopCounts) {
  ExpectGridClosure<TropNatS>([](const Edge&) { return uint64_t{1}; },
                              [](int len, uint64_t) {
                                return static_cast<uint64_t>(len);
                              });
}

TEST(EngineValue, NatGridPathCounts) {
  // The grid is a DAG, so ℕ path counting converges.
  ExpectGridClosure<NatS>([](const Edge&) { return uint64_t{1}; },
                          [](int, uint64_t paths) { return paths; });
}

TEST(EngineValue, RealPlusGridPathWeights) {
  // Every path weighs 2^-len, so each sum is exact in binary floating
  // point and the comparison can be exact too.
  ExpectGridClosure<RealPlusS>([](const Edge&) { return 0.5; },
                               [](int len, uint64_t paths) {
                                 return std::ldexp(
                                     static_cast<double>(paths), -len);
                               });
}

TEST(EngineValue, GroundAndVariableResidualsMatchGroundedEngine) {
  // [Y != v6] compares an innermost-bound variable with a constant,
  // [Y != X] two variables; v6 is an interior grid vertex, so the filter
  // also cuts every path through it. The grounded engine is the oracle.
  constexpr const char* kFiltered = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) * [Y != v6] ; T(X,Z) * E(Z,Y) * [Y != v6, Y != X].
  )";
  Domain dom;
  auto prog = ParseProgram(kFiltered, &dom).value();
  Graph g = GridGraph(5, 5);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb);
  auto naive = engine.Naive(1000);
  auto semi = engine.SemiNaive(1000);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_TRUE(semi.idb.Equals(naive.idb));
  const Relation<TropS>& t = naive.idb.idb(prog.FindPredicate("T"));
  EXPECT_EQ(t.Get({ids[0], ids[6]}), TropS::Inf());
  EXPECT_EQ(t.Get({ids[1], ids[11]}), TropS::Inf());  // only path via v6
  EXPECT_EQ(t.Get({ids[0], ids[12]}), 4.0);
  auto grounded = GroundProgram<TropS>(prog, edb);
  auto poly = grounded.NaiveIterate(1000);
  ASSERT_TRUE(poly.converged);
  EXPECT_TRUE(grounded.Decode(poly.values).Equals(naive.idb));
}

TEST(EngineValue, AlwaysFalseDisjunctKeepsWorkTrace) {
  // A residual decided false at compile time ([v0 = v1]) makes the
  // disjunct dead: it still runs its join, so its work is counted, but
  // it emits nothing — the fixpoint equals the program without it.
  constexpr const char* kDead = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y) * [v0 = v1].
  )";
  constexpr const char* kLive = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y).
  )";
  auto run = [](const char* text) {
    Domain dom;
    auto prog = ParseProgram(text, &dom).value();
    Graph g = GridGraph(8, 8);
    std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
    EdbInstance<TropS> edb(prog);
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.FindPredicate("E")));
    Engine<TropS> engine(prog, edb);
    auto r = engine.SemiNaive(1000);
    EXPECT_TRUE(r.converged);
    return std::make_pair(
        r.idb.idb(prog.FindPredicate("T")).support_size(), r.work);
  };
  const auto [dead_support, dead_work] = run(kDead);
  const auto [live_support, live_work] = run(kLive);
  EXPECT_EQ(dead_support, live_support);
  EXPECT_GT(dead_work, live_work);
}

}  // namespace
}  // namespace datalogo
