// Cross-thread-count equivalence for the parallel ICO step: every golden
// program from engine_equivalence_test.cc (B / Trop / PosBool, naive and
// semi-naive) must produce bit-identical
// fixpoints, `work` counters, iteration counts AND index-cache counters
// (total and IDB-attributed) at num_threads ∈ {1, 2, 3, 8} — including
// with tiny shard_rows that force many (disjunct, shard) tasks per ICO
// application, which exercises the deterministic partial-merge order.
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

/// One full evaluation with a fresh Engine, capturing everything the
/// determinism contract covers.
template <Pops P>
struct RunRecord {
  EvalResult<P> result;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t idb_index_builds = 0;
  uint64_t idb_index_hits = 0;
};

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
RunRecord<P> RunOnce(const Program& prog, const EdbInstance<P>& edb,
                     bool semi, EngineOptions opt) {
  Engine<P> engine(prog, edb, opt);
  RunRecord<P> rec{semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20),
                   engine.index_builds(), engine.index_hits(),
                   engine.idb_index_builds(), engine.idb_index_hits()};
  return rec;
}

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectThreadCountInvariance(const Program& prog,
                                 const EdbInstance<P>& edb) {
  for (bool semi : {false, true}) {
    RunRecord<P> base =
        RunOnce<P>(prog, edb, semi, EngineOptions{.num_threads = 1});
    ASSERT_TRUE(base.result.converged);
    for (int threads : {2, 3, 8}) {
      // shard_rows = 4 forces multi-shard evaluation even on these
      // small inputs; 256 is the production default.
      for (int shard_rows : {4, 256}) {
        SCOPED_TRACE(::testing::Message()
                     << P::kName << (semi ? " semi" : " naive")
                     << " threads=" << threads
                     << " shard_rows=" << shard_rows);
        RunRecord<P> run =
            RunOnce<P>(prog, edb, semi,
                       EngineOptions{.num_threads = threads,
                                     .shard_rows = shard_rows});
        EXPECT_TRUE(run.result.converged);
        EXPECT_TRUE(run.result.idb.Equals(base.result.idb));
        EXPECT_EQ(run.result.steps, base.result.steps);
        EXPECT_EQ(run.result.work, base.result.work);
        EXPECT_EQ(run.index_builds, base.index_builds);
        EXPECT_EQ(run.index_hits, base.index_hits);
        EXPECT_EQ(run.idb_index_builds, base.idb_index_builds);
        EXPECT_EQ(run.idb_index_hits, base.idb_index_hits);
      }
    }
  }
}

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectThreadCountInvarianceOnGraph(const char* text, const Graph& g,
                                        auto&& lift) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  ExpectThreadCountInvariance<P>(prog, edb);
}

TEST(EngineParallel, BooleanLinearTcChain80) {
  ExpectThreadCountInvarianceOnGraph<BoolS>(
      kLinearTc, ChainGraph(80), [](const Edge&) { return true; });
}

TEST(EngineParallel, BooleanQuadraticTcChain80) {
  ExpectThreadCountInvarianceOnGraph<BoolS>(
      kQuadraticTc, ChainGraph(80), [](const Edge&) { return true; });
}

TEST(EngineParallel, TropicalSsspChain80) {
  ExpectThreadCountInvarianceOnGraph<TropS>(
      kSssp, ChainGraph(80), [](const Edge& e) { return e.weight; });
}

TEST(EngineParallel, TropicalApspGrid8x8) {
  ExpectThreadCountInvarianceOnGraph<TropS>(
      kLinearTc, GridGraph(8, 8), [](const Edge& e) { return e.weight; });
}

TEST(EngineParallel, SeedWorkGoldensHoldAtEightThreads) {
  // Anchor against the absolute seed goldens (engine_equivalence_test),
  // not merely against a same-binary sequential run.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  Graph g = ChainGraph(80);
  std::vector<ConstId> ids = InternVertices(80, &dom);
  EdbInstance<BoolS> edb(prog);
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<BoolS> engine(prog, edb,
                       EngineOptions{.num_threads = 8, .shard_rows = 16});
  EXPECT_EQ(engine.num_threads(), 8);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_EQ(naive.work, 338120u);
  EXPECT_EQ(semi.work, 6320u);
}

TEST(EngineParallel, ProvenancePosBoolChain6) {
  // Set-valued provenance: the parallel merge must assemble exactly the
  // same clause sets.
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
  ExpectThreadCountInvariance<PosBoolS>(prog, edb);

  Engine<PosBoolS> par(prog, edb,
                       EngineOptions{.num_threads = 3, .shard_rows = 1});
  auto naive = par.Naive(1 << 20);
  ASSERT_TRUE(naive.converged);
  PosBoolS::Clause all;
  for (int i = 0; i < n - 1; ++i) all.insert("x" + std::to_string(i));
  EXPECT_EQ(naive.idb.idb(prog.FindPredicate("T")).Get({ids[0], ids[n - 1]}),
            PosBoolS::Value{all});
  EXPECT_EQ(naive.work, 125u);
}

TEST(EngineParallel, MutualRecursionMultiHeadMerge) {
  // Two rules with distinct head predicates in one stratum: the reduce
  // phase routes partials to the right heads in rule order.
  constexpr const char* kText = R"(
    edb E/2.
    idb Odd/2.
    idb Even/2.
    Odd(X,Y) :- E(X,Y) ; Even(X,Z) * E(Z,Y).
    Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom).value();
  Graph g = CycleGraph(9);
  std::vector<ConstId> ids = InternVertices(9, &dom);
  EdbInstance<BoolS> edb(prog);
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.FindPredicate("E")));
  ExpectThreadCountInvariance<BoolS>(prog, edb);
}

TEST(EngineParallel, TropicalParityPathsRandom) {
  // A multi-stratum program: the mutually recursive Odd/Even pair feeds a
  // quadratic closure T downstream, so each ICO application evaluates
  // rules with different head predicates and mixed IDB occurrences.
  constexpr const char* kParityPaths = R"(
    edb E/2.
    idb Odd/2. idb Even/2. idb T/2.
    Odd(X,Y) :- E(X,Y).
    Odd(X,Y) :- Even(X,Z) * E(Z,Y).
    Even(X,Y) :- Odd(X,Z) * E(Z,Y).
    T(X,Y) :- Even(X,Y) ; Odd(X,Y) ; T(X,Z) * T(Z,Y).
  )";
  ExpectThreadCountInvarianceOnGraph<TropS>(
      kParityPaths, RandomGraph(24, 72, /*seed=*/9),
      [](const Edge& e) { return e.weight; });
}

TEST(EngineParallel, ConditionsBedbAndOrderComparisons) {
  // Residual Boolean-EDB conditions plus an integer order comparison run
  // on the concurrent execute path (CheckCondition → Domain::AsInt).
  constexpr const char* kText = R"(
    edb E/2.
    bedb Blocked/1.
    idb T/2.
    T(X,Y) :- { E(X,Y) | !Blocked(Y), X < Y }
            ; { T(X,Z) * E(Z,Y) | !Blocked(Y), X < Y }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom).value();
  EdbInstance<TropS> edb(prog);
  Relation<TropS>& e_rel = edb.pops(prog.FindPredicate("E"));
  std::vector<ConstId> ids;
  for (int v = 0; v < 24; ++v) ids.push_back(dom.InternInt(v));
  for (int v = 0; v + 1 < 24; ++v) {
    e_rel.Merge({ids[v], ids[v + 1]}, 1.0);
    if (v + 3 < 24) e_rel.Merge({ids[v], ids[v + 3]}, 2.5);
  }
  edb.boolean(prog.FindPredicate("Blocked")).Set({ids[5]}, true);
  edb.boolean(prog.FindPredicate("Blocked")).Set({ids[11]}, true);
  ExpectThreadCountInvariance<TropS>(prog, edb);
}

TEST(EngineParallel, AutoThreadCountAndStratifiedEvaluation) {
  // num_threads = 0 resolves to hardware concurrency; NaiveWithRules
  // (the stratified building block) goes through the same parallel path.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  Graph g = ChainGraph(40);
  std::vector<ConstId> ids = InternVertices(40, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> seq(prog, edb);
  Engine<TropS> autopar(prog, edb,
                        EngineOptions{.num_threads = 0, .shard_rows = 8});
  EXPECT_GE(autopar.num_threads(), 1);
  std::vector<int> all_rules = {0};
  auto base = seq.NaiveWithRules(all_rules, IdbInstance<TropS>(prog), 1 << 20);
  auto run =
      autopar.NaiveWithRules(all_rules, IdbInstance<TropS>(prog), 1 << 20);
  ASSERT_TRUE(base.converged && run.converged);
  EXPECT_TRUE(run.idb.Equals(base.idb));
  EXPECT_EQ(run.work, base.work);
}

}  // namespace
}  // namespace datalogo
