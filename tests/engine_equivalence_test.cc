// Cross-check for the allocation-free join kernel: Naive and SemiNaive
// must produce the same fixpoints AND the same join-work counters as the
// seed's vector-tuple / recursive-lambda engine. The work goldens below
// were recorded from the seed engine on deterministic (RNG-free) chain
// and grid workloads; the compiled flat join program is required to visit
// exactly the same generator entries in the same multiplicity.
#include <gtest/gtest.h>

#include "src/datalogo.h"
#include "src/semiring/provenance.h"

namespace datalogo {
namespace {

constexpr const char* kLinearTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

constexpr const char* kQuadraticTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * T(Z,Y).
)";

constexpr const char* kSssp = R"(
  edb E/2.
  idb L/1.
  L(X) :- [X = v0] ; L(Z) * E(Z, X).
)";

Graph ChainGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  return g;
}

/// Runs naive and semi-naive evaluation and checks the fixpoints agree and the work counters hit the seed goldens.
template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectSeedBehaviour(const char* text, const Graph& g, auto&& lift,
                         uint64_t golden_naive_work,
                         uint64_t golden_semi_work) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));

  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);

  ASSERT_TRUE(naive.converged);
  ASSERT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));

  EXPECT_EQ(naive.work, golden_naive_work);
  EXPECT_EQ(semi.work, golden_semi_work);
}

TEST(EngineEquivalence, BooleanLinearTcChain80) {
  ExpectSeedBehaviour<BoolS>(kLinearTc, ChainGraph(80),
                             [](const Edge&) { return true; },
                             /*golden_naive_work=*/338120,
                             /*golden_semi_work=*/6320);
}

TEST(EngineEquivalence, BooleanQuadraticTcChain80) {
  ExpectSeedBehaviour<BoolS>(kQuadraticTc, ChainGraph(80),
                             [](const Edge&) { return true; },
                             /*golden_naive_work=*/244823,
                             /*golden_semi_work=*/95925);
}

TEST(EngineEquivalence, TropicalSsspChain80) {
  ExpectSeedBehaviour<TropS>(kSssp, ChainGraph(80),
                             [](const Edge& e) { return e.weight; },
                             /*golden_naive_work=*/6479,
                             /*golden_semi_work=*/159);
}

TEST(EngineEquivalence, TropicalApspGrid8x8) {
  ExpectSeedBehaviour<TropS>(kLinearTc, GridGraph(8, 8),
                             [](const Edge& e) { return e.weight; },
                             /*golden_naive_work=*/33936,
                             /*golden_semi_work=*/3248);
}

TEST(EngineEquivalence, ProvenancePosBoolChain6) {
  // PosBool[X] provenance on a labeled chain: x_i tags edge (v_i, v_i+1).
  // The fixpoint for T(v0, v5) must be the single clause {x0..x4}, and
  // both engines must do the seed's exact join work.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  const int n = 6;
  Graph g = ChainGraph(n);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<PosBoolS> edb(prog);
  {
    int i = 0;
    for (const Edge& e : g.edges()) {
      edb.pops(prog.FindPredicate("E"))
          .Merge({ids[e.src], ids[e.dst]},
                 PosBoolS::Var("x" + std::to_string(i++)));
    }
  }
  Engine<PosBoolS> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  ASSERT_TRUE(naive.converged);
  ASSERT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));

  PosBoolS::Clause all;
  for (int i = 0; i < n - 1; ++i) all.insert("x" + std::to_string(i));
  EXPECT_EQ(naive.idb.idb(prog.FindPredicate("T")).Get({ids[0], ids[n - 1]}),
            PosBoolS::Value{all});

  EXPECT_EQ(naive.work, 125u);
  EXPECT_EQ(semi.work, 30u);
}

}  // namespace
}  // namespace datalogo
