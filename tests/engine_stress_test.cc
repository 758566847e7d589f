// Stress and cross-engine agreement sweeps beyond the core suites:
// more semirings, mutual recursion, conditions in recursion, divergence
// budgets, and degenerate instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <random>
#include <sstream>

#include "src/datalogo.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

template <NaturallyOrderedSemiring P, typename F>
void ExpectEnginesAgree(const Graph& g, F&& lift, uint64_t seed) {
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog.value());
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.value().FindPredicate("E")));
  Engine<P> engine(prog.value(), edb);
  auto support = engine.Naive(100000);
  ASSERT_TRUE(support.converged) << P::kName << " seed " << seed;
  auto grounded = GroundProgram<P>(prog.value(), edb);
  auto poly = grounded.NaiveIterate(100000);
  ASSERT_TRUE(poly.converged) << P::kName << " seed " << seed;
  EXPECT_TRUE(grounded.Decode(poly.values).Equals(support.idb))
      << P::kName << " seed " << seed;
}

TEST(EngineStress, CrossEngineAgreementAcrossSemirings) {
  const uint64_t seeds = static_cast<uint64_t>(CiIterations(5, 2));
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    Graph g = RandomGraph(6, 14, seed * 3 + 1);
    ExpectEnginesAgree<TropNatS>(
        g, [](const Edge& e) { return static_cast<uint64_t>(e.weight); },
        seed);
    ExpectEnginesAgree<FuzzyS>(
        g, [](const Edge& e) { return 1.0 / (1.0 + e.weight); }, seed);
    ExpectEnginesAgree<ViterbiS>(
        g, [](const Edge& e) { return 1.0 / (1.0 + e.weight); }, seed);
    // N on a DAG only (cycles diverge by design).
    Graph dag = LayeredDag(3, 2, 0.8, seed);
    ExpectEnginesAgree<NatS>(
        dag, [](const Edge&) { return static_cast<uint64_t>(1); }, seed);
  }
}

TEST(EngineStress, MutualRecursionEvenOddPaths) {
  // Even(X,Y): path of even length; Odd(X,Y): odd length.
  constexpr const char* kText = R"(
    edb E/2.
    idb Odd/2.
    idb Even/2.
    Odd(X,Y) :- E(X,Y) ; Even(X,Z) * E(Z,Y).
    Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_TRUE(ValidateProgram(prog.value()).ok());
  Graph g = CycleGraph(5);  // odd cycle: eventually all pairs both ways
  std::vector<ConstId> ids = InternVertices(5, &dom);
  EdbInstance<BoolS> edb(prog.value());
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<BoolS> engine(prog.value(), edb);
  auto naive = engine.Naive(1000);
  auto semi = engine.SemiNaive(1000);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));
  // On an odd cycle, every ordered pair is reachable by both parities.
  int even = prog.value().FindPredicate("Even");
  int odd = prog.value().FindPredicate("Odd");
  EXPECT_EQ(naive.idb.idb(even).support_size(), 25u);
  EXPECT_EQ(naive.idb.idb(odd).support_size(), 25u);
}

TEST(EngineStress, ConditionsInsideRecursion) {
  // Shortest paths avoiding "blocked" vertices.
  constexpr const char* kText = R"(
    edb E/2.
    bedb Blocked/1.
    idb L/1.
    L(X) :- [X = v0] ; { L(Z) * E(Z, X) | !Blocked(X) }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(ValidateProgram(prog.value()).ok());
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  g.AddEdge(0, 3, 5.0);
  g.AddEdge(3, 2, 1.0);
  std::vector<ConstId> ids = InternVertices(4, &dom);
  EdbInstance<TropS> edb(prog.value());
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.value().FindPredicate("E")));
  edb.boolean(prog.value().FindPredicate("Blocked")).Set({ids[1]}, true);
  Engine<TropS> engine(prog.value(), edb);
  auto r = engine.Naive(100);
  ASSERT_TRUE(r.converged);
  int l = prog.value().FindPredicate("L");
  EXPECT_EQ(r.idb.idb(l).Get({ids[1]}), TropS::Inf());  // blocked
  EXPECT_EQ(r.idb.idb(l).Get({ids[2]}), 6.0);           // detour via 3
}

TEST(EngineStress, DivergenceBudgetIsRespected) {
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = CycleGraph(3);
  std::vector<ConstId> ids = InternVertices(3, &dom);
  EdbInstance<NatS> edb(prog.value());
  LoadEdges<NatS>(g, ids, [](const Edge&) { return uint64_t{2}; },
                  &edb.pops(prog.value().FindPredicate("E")));
  Engine<NatS> engine(prog.value(), edb);
  auto r = engine.Naive(17);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.steps, 17);
}

TEST(EngineStress, SelfLoopsAndParallelEdges) {
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g(2);
  g.AddEdge(0, 0, 3.0);
  g.AddEdge(0, 1, 7.0);
  g.AddEdge(0, 1, 2.0);  // parallel, cheaper
  std::vector<ConstId> ids = InternVertices(2, &dom);
  EdbInstance<TropS> edb(prog.value());
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<TropS> engine(prog.value(), edb);
  auto r = engine.Naive(100);
  ASSERT_TRUE(r.converged);
  int t = prog.value().FindPredicate("T");
  EXPECT_EQ(r.idb.idb(t).Get({ids[0], ids[0]}), 3.0);
  EXPECT_EQ(r.idb.idb(t).Get({ids[0], ids[1]}), 2.0);  // min of parallels
}

TEST(EngineStress, LargerRandomSweepSemiNaiveEqualsNaive) {
  const uint64_t seeds = static_cast<uint64_t>(CiIterations(3, 1));
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    Domain dom;
    auto prog = ParseProgram(kTc, &dom);
    ASSERT_TRUE(prog.ok());
    Graph g = RandomGraph(40, 160, seed + 500);
    std::vector<ConstId> ids = InternVertices(40, &dom);
    EdbInstance<TropS> edb(prog.value());
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.value().FindPredicate("E")));
    Engine<TropS> engine(prog.value(), edb);
    auto naive = engine.Naive(100000);
    auto semi = engine.SemiNaive(100000);
    auto nodiff = engine.SemiNaiveNonDifferential(100000);
    ASSERT_TRUE(naive.converged && semi.converged && nodiff.converged);
    EXPECT_TRUE(naive.idb.Equals(semi.idb)) << seed;
    EXPECT_TRUE(naive.idb.Equals(nodiff.idb)) << seed;
  }
}

TEST(EngineStress, IndexCacheInvalidatesOnEdbMutation) {
  // The engine caches RelationIndexes; mutating the EDB between runs must
  // invalidate them, so a rerun sees the new data exactly like a fresh
  // engine built after the mutation (which starts with a cold cache).
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  std::vector<ConstId> ids = InternVertices(3, &dom);
  EdbInstance<TropS> edb(prog.value());
  int e = prog.value().FindPredicate("E");
  int t = prog.value().FindPredicate("T");
  edb.pops(e).Set({ids[0], ids[1]}, 5.0);
  Engine<TropS> cached(prog.value(), edb);
  auto first = cached.Naive(100);
  ASSERT_TRUE(first.converged);
  EXPECT_EQ(first.idb.idb(t).Get({ids[0], ids[1]}), 5.0);
  EXPECT_GT(cached.index_hits(), 0u);

  edb.pops(e).Set({ids[0], ids[1]}, 2.0);
  edb.pops(e).Set({ids[1], ids[2]}, 1.0);
  auto second = cached.Naive(100);
  Engine<TropS> cold(prog.value(), edb);
  auto reference = cold.Naive(100);
  ASSERT_TRUE(second.converged && reference.converged);
  EXPECT_EQ(second.idb.idb(t).Get({ids[0], ids[1]}), 2.0);
  EXPECT_EQ(second.idb.idb(t).Get({ids[0], ids[2]}), 3.0);
  EXPECT_TRUE(second.idb.Equals(reference.idb));
}

TEST(EngineStress, CachedEngineAgreesWithGroundedOracleAndHitsCache) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Domain dom;
    auto prog = ParseProgram(kTc, &dom);
    ASSERT_TRUE(prog.ok());
    Graph g = RandomGraph(25, 80, seed + 77);
    std::vector<ConstId> ids = InternVertices(25, &dom);
    EdbInstance<TropS> edb(prog.value());
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.value().FindPredicate("E")));
    auto grounded = GroundProgram<TropS>(prog.value(), edb);
    auto oracle = grounded.NaiveIterate(100000);
    ASSERT_TRUE(oracle.converged) << seed;
    const IdbInstance<TropS> want = grounded.Decode(oracle.values);
    Engine<TropS> cached(prog.value(), edb);
    auto cn = cached.Naive(100000);
    ASSERT_TRUE(cn.converged) << seed;
    EXPECT_TRUE(cn.idb.Equals(want)) << seed;
    auto cs = cached.SemiNaive(100000);
    ASSERT_TRUE(cs.converged) << seed;
    EXPECT_TRUE(cs.idb.Equals(want)) << seed;
    EXPECT_GT(cached.index_hits(), 0u) << seed;
  }
}

/// Thread count for the parallel stress sweep: DATALOGO_THREADS if set
/// (the tsan CI preset exports 4), else 4.
int StressThreads() {
  const char* v = std::getenv("DATALOGO_THREADS");
  if (v != nullptr && v[0] != '\0') {
    int t = std::atoi(v);
    if (t >= 1) return t;
  }
  return 4;
}

TEST(EngineStress, ParallelRandomProgramsMatchSequential) {
  // Randomized programs (1-2 IDB predicates, 1-3 disjuncts each, sampled
  // from a range-restricted template grammar) over randomized EDBs: the
  // parallel engine must reproduce the sequential fixpoint, work counter
  // and iteration count exactly, across thread counts, shard sizes —
  // including shard_rows = 1, one task per driver entry.
  const int cases = CiIterations(12, 4);
  const int env_threads = StressThreads();
  std::mt19937_64 rng(0xD47A1060u);
  for (int c = 0; c < cases; ++c) {
    std::ostringstream text;
    const bool two_idb = rng() % 2 == 0;
    text << "edb E/2.\nidb T/2.\n";
    if (two_idb) text << "idb U/2.\n";
    text << "T(X,Y) :- E(X,Y)";
    if (rng() % 2 == 0) text << " ; T(X,Z) * E(Z,Y)";
    if (rng() % 2 == 0) text << " ; T(X,Z) * T(Z,Y)";
    if (rng() % 2 == 0) text << " ; T(X,X) * E(X,Y)";  // repeated-var check
    if (rng() % 3 == 0) text << " ; { E(X,Z) * E(Z,Y) | X != Y }";
    text << ".\n";
    if (two_idb) {
      text << "U(X,Y) :- T(X,Y)";
      if (rng() % 2 == 0) text << " ; U(X,Z) * E(Z,Y)";
      if (rng() % 2 == 0) text << " ; E(X,X) * T(X,Y)";  // check on EDB
      text << ".\n";
    }
    SCOPED_TRACE(::testing::Message() << "case " << c << ":\n" << text.str());
    Domain dom;
    auto prog = ParseProgram(text.str(), &dom);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    ASSERT_TRUE(ValidateProgram(prog.value()).ok());
    const int n = 6 + static_cast<int>(rng() % 18);
    const int m = n + static_cast<int>(rng() % (3 * n));
    Graph g = RandomGraph(n, m, rng());
    std::vector<ConstId> ids = InternVertices(n, &dom);
    EdbInstance<TropS> edb(prog.value());
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.value().FindPredicate("E")));

    Engine<TropS> seq(prog.value(), edb);
    auto base_naive = seq.Naive(100000);
    auto base_semi = seq.SemiNaive(100000);
    ASSERT_TRUE(base_naive.converged && base_semi.converged);

    const int threads = c % 2 == 0 ? env_threads : 2 + static_cast<int>(rng() % 2);
    const int shard_rows = std::array{1, 8, 512}[rng() % 3];
    SCOPED_TRACE(::testing::Message()
                 << "threads=" << threads << " shard_rows=" << shard_rows);
    Engine<TropS> par(prog.value(), edb,
                      EngineOptions{.num_threads = threads,
                                    .shard_rows = shard_rows});
    auto par_naive = par.Naive(100000);
    auto par_semi = par.SemiNaive(100000);
    ASSERT_TRUE(par_naive.converged && par_semi.converged);
    EXPECT_TRUE(par_naive.idb.Equals(base_naive.idb));
    EXPECT_TRUE(par_semi.idb.Equals(base_semi.idb));
    EXPECT_EQ(par_naive.work, base_naive.work);
    EXPECT_EQ(par_semi.work, base_semi.work);
    EXPECT_EQ(par_naive.steps, base_naive.steps);
    EXPECT_EQ(par_semi.steps, base_semi.steps);
  }
}

TEST(EngineStress, RepeatedVariableProgramsMatchGroundedOracle) {
  // Random programs biased toward repeated-variable atoms (T(X,X),
  // E(X,X) — the patterns that compile to check ops, which keep the
  // innermost level off the join's tight drain) plus residual
  // conditions. The sequential fixpoint must equal the grounded one, and
  // runs at 1 and 4 threads must reproduce its fixpoint, work and steps
  // exactly.
  const int cases = CiIterations(10, 4);
  std::mt19937_64 rng(0xBA7C4ED0u);
  for (int c = 0; c < cases; ++c) {
    std::ostringstream text;
    text << "edb E/2.\nidb T/2.\nidb U/2.\n";
    text << "T(X,Y) :- E(X,Y)";
    if (rng() % 2 == 0) text << " ; T(X,X) * E(X,Y)";
    if (rng() % 2 == 0) text << " ; T(X,Z) * E(Z,Y)";
    text << ".\n";
    text << "U(X,Y) :- E(X,X) * T(X,Y)";
    if (rng() % 2 == 0) text << " ; U(X,X) * T(X,Y)";
    if (rng() % 3 == 0) text << " ; { T(X,Z) * T(Z,Y) | X != Y }";
    text << ".\n";
    SCOPED_TRACE(::testing::Message() << "case " << c << ":\n" << text.str());
    Domain dom;
    auto prog = ParseProgram(text.str(), &dom);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    ASSERT_TRUE(ValidateProgram(prog.value()).ok());
    const int n = 5 + static_cast<int>(rng() % 12);
    const int m = 2 * n + static_cast<int>(rng() % (2 * n));
    Graph g = RandomGraph(n, m, rng());
    // Guarantee some self-loops so the checks have surviving rows, not
    // just failing ones.
    for (int v = 0; v < n; v += 3) g.AddEdge(v, v, 1.0);
    std::vector<ConstId> ids = InternVertices(n, &dom);
    EdbInstance<TropS> edb(prog.value());
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.value().FindPredicate("E")));

    Engine<TropS> ref(prog.value(), edb);
    auto ref_naive = ref.Naive(100000);
    auto ref_semi = ref.SemiNaive(100000);
    ASSERT_TRUE(ref_naive.converged && ref_semi.converged);
    auto grounded = GroundProgram<TropS>(prog.value(), edb);
    auto oracle = grounded.NaiveIterate(100000);
    ASSERT_TRUE(oracle.converged);
    EXPECT_TRUE(ref_naive.idb.Equals(grounded.Decode(oracle.values)));

    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      Engine<TropS> engine(prog.value(), edb,
                           EngineOptions{.num_threads = threads});
      auto got_naive = engine.Naive(100000);
      auto got_semi = engine.SemiNaive(100000);
      ASSERT_TRUE(got_naive.converged && got_semi.converged);
      EXPECT_TRUE(got_naive.idb.Equals(ref_naive.idb));
      EXPECT_TRUE(got_semi.idb.Equals(ref_semi.idb));
      EXPECT_EQ(got_naive.work, ref_naive.work);
      EXPECT_EQ(got_semi.work, ref_semi.work);
      EXPECT_EQ(got_naive.steps, ref_naive.steps);
      EXPECT_EQ(got_semi.steps, ref_semi.steps);
    }
  }
}

TEST(EngineStress, TropPTopKPathsMatchEnumeration) {
  // Over Trop+_2 the APSP fixpoint holds the 3 cheapest WALK lengths;
  // verify against brute-force walk enumeration on a small graph.
  using T = TropPS<2>;
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 0, 4.0);
  g.AddEdge(0, 2, 10.0);
  std::vector<ConstId> ids = InternVertices(3, &dom);
  EdbInstance<T> edb(prog.value());
  LoadEdges<T>(g, ids,
               [](const Edge& e) { return T::FromScalar(e.weight); },
               &edb.pops(prog.value().FindPredicate("E")));
  auto grounded = GroundProgram<T>(prog.value(), edb);
  auto iter = grounded.NaiveIterate(10000);
  ASSERT_TRUE(iter.converged);

  // Brute-force: enumerate walks up to length 12 edges.
  std::vector<std::vector<std::vector<double>>> walks(
      3, std::vector<std::vector<double>>(3));
  struct Item {
    int v;
    double len;
    int edges;
  };
  std::vector<Item> frontier = {{0, 0, 0}};
  for (int start = 0; start < 3; ++start) {
    std::vector<Item> layer = {{start, 0.0, 0}};
    for (int step = 0; step < 12; ++step) {
      std::vector<Item> next;
      for (const Item& it : layer) {
        for (const Edge& e : g.edges()) {
          if (e.src != it.v) continue;
          next.push_back({e.dst, it.len + e.weight, it.edges + 1});
          walks[start][e.dst].push_back(it.len + e.weight);
        }
      }
      layer = std::move(next);
    }
  }
  int t = prog.value().FindPredicate("T");
  for (int s = 0; s < 3; ++s) {
    for (int v = 0; v < 3; ++v) {
      std::sort(walks[s][v].begin(), walks[s][v].end());
      int var = grounded.VarOf(t, {ids[s], ids[v]});
      const T::Value& got = iter.values[var];
      for (int k = 0; k < 3 && k < static_cast<int>(walks[s][v].size());
           ++k) {
        EXPECT_DOUBLE_EQ(got[k], walks[s][v][k])
            << s << "->" << v << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace datalogo
