// Tests for Engine::Update — incremental maintenance against the one
// oracle that matters: a full recompute from the mutated EDB must be
// bit-identical to the warm Update result, across carriers, thread
// counts and index tiers.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

/// The engine configurations the bit-identity contract is checked over:
/// threads, plus each forced index tier.
std::vector<EngineOptions> ConfigMatrix() {
  std::vector<EngineOptions> out;
  for (int threads : {1, 4}) {
    EngineOptions o;
    o.num_threads = threads;
    out.push_back(o);
  }
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kDirect}) {
    EngineOptions o;
    o.index_kind = kind;
    out.push_back(o);
  }
  return out;
}

std::string ConfigName(const EngineOptions& o) {
  std::string s = "t" + std::to_string(o.num_threads);
  s += o.index_kind == IndexKind::kHash     ? "/hash"
       : o.index_kind == IndexKind::kDirect ? "/direct"
                                            : "/auto";
  return s;
}

/// Full recompute from `edb` with a FRESH engine (cold caches): the
/// golden result Update must match bit-for-bit.
template <Pops P>
EvalResult<P> Golden(const Program& prog, const EdbInstance<P>& edb,
                     const EngineOptions& opts) {
  Engine<P> eng(prog, edb, opts);
  if constexpr (CompleteDistributiveDioid<P>) return eng.SemiNaive(1000);
  return eng.Naive(1000);
}

/// All live tuples of a relation (for picking random deletions).
template <Pops P>
std::vector<Tuple> LiveTuples(const Relation<P>& rel) {
  std::vector<Tuple> out;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    Tuple t;
    for (int p = 0; p < rel.arity(); ++p) t.push_back(rel.Cell(r, p));
    out.push_back(std::move(t));
  }
  return out;
}

/// Drives `rounds` random mixed batches through one warm engine and
/// checks each against a cold full recompute of the mutated EDB. The
/// comparison is Relation::Equals (same support, P::Eq values) plus
/// DumpTsvChecked string equality — byte-level, catching any value
/// formatting drift too.
template <Pops P, typename MakeValue>
void ChurnAgainstRecompute(const EngineOptions& opts, MakeValue make_value,
                           int rounds, unsigned seed,
                           bool acyclic = false) {
  Domain dom;
  auto prog_or = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog_or.ok());
  const Program& prog = prog_or.value();
  const int e = prog.FindPredicate("E");
  const int t = prog.FindPredicate("T");

  std::mt19937 rng(seed);
  const int n = 12;
  std::vector<ConstId> ids;
  for (int v = 0; v < n; ++v) {
    ids.push_back(dom.InternSymbol("v" + std::to_string(v)));
  }

  // Carriers whose fixpoint only exists on DAGs (provenance polynomials
  // grow a monomial per path) get strictly ascending edges.
  auto random_edge = [&]() -> std::pair<ConstId, ConstId> {
    int a = static_cast<int>(rng() % n), b = static_cast<int>(rng() % n);
    if (acyclic) {
      if (a == b) b = (a + 1) % n;
      if (a > b) std::swap(a, b);
    }
    return {ids[a], ids[b]};
  };
  EdbInstance<P> edb(prog);
  for (int i = 0; i < 2 * n; ++i) {
    auto [a, b] = random_edge();
    edb.pops(e).Merge({a, b}, make_value(rng));
  }

  Engine<P> eng(prog, edb, opts);
  IdbInstance<P> idb(prog);
  {
    EvalResult<P> r0 = Golden<P>(prog, edb, opts);
    ASSERT_TRUE(r0.converged);
    idb.CopyContentsFrom(r0.idb);
  }

  for (int round = 0; round < rounds; ++round) {
    EdbDelta<P> batch;
    const int adds = 1 + static_cast<int>(rng() % 3);
    const int dels = static_cast<int>(rng() % 3);
    std::vector<Tuple> live = LiveTuples(edb.pops(e));
    for (int i = 0; i < dels && !live.empty(); ++i) {
      batch.Delete(e, live[rng() % live.size()]);
    }
    for (int i = 0; i < adds; ++i) {
      auto [a, b] = random_edge();
      batch.Add(e, Tuple{a, b}, make_value(rng));
    }

    UpdateResult ur = eng.Update(batch, &edb, &idb, 1000);
    ASSERT_TRUE(ur.converged) << ConfigName(opts) << " round " << round;

    EdbInstance<P> gold_edb(prog);
    gold_edb.pops(e) = edb.pops(e);
    EvalResult<P> gold = Golden<P>(prog, gold_edb, opts);
    ASSERT_TRUE(gold.converged);
    ASSERT_TRUE(idb.Equals(gold.idb))
        << ConfigName(opts) << " round " << round
        << ": Update diverged from full recompute";
    std::string got, want;
    ASSERT_TRUE(DumpTsvChecked(idb.idb(t), dom, &got).ok());
    ASSERT_TRUE(DumpTsvChecked(gold.idb.idb(t), dom, &want).ok());
    EXPECT_EQ(got, want) << ConfigName(opts) << " round " << round;
  }
}

TEST(EngineUpdate, BoolChurnMatchesRecompute) {
  int rounds = CiIterations(8, 3);
  for (const EngineOptions& o : ConfigMatrix()) {
    ChurnAgainstRecompute<BoolS>(
        o, [](std::mt19937&) { return true; }, rounds, 11);
  }
}

TEST(EngineUpdate, TropChurnMatchesRecompute) {
  int rounds = CiIterations(8, 3);
  for (const EngineOptions& o : ConfigMatrix()) {
    // Weights exact in binary (k/8), so recompute and cascade sums are
    // comparable bit-for-bit.
    ChurnAgainstRecompute<TropS>(
        o, [](std::mt19937& rng) { return double(1 + rng() % 64) / 8.0; },
        rounds, 23);
  }
}

TEST(EngineUpdate, NaturalsChurnMatchesRecompute) {
  int rounds = CiIterations(6, 2);
  for (const EngineOptions& o : ConfigMatrix()) {
    ChurnAgainstRecompute<NatS>(
        o, [](std::mt19937& rng) { return uint64_t{1} + rng() % 3; }, rounds,
        37);
  }
}

TEST(EngineUpdate, ProvenanceChurnMatchesRecompute) {
  int rounds = CiIterations(4, 2);
  EngineOptions o;
  int edge = 0;
  ChurnAgainstRecompute<ProvPolyS>(
      o,
      [&edge](std::mt19937&) {
        return ProvPolyS::Var("e" + std::to_string(edge++));
      },
      rounds, 41, /*acyclic=*/true);
}

// -------- Targeted scenarios --------

struct Fixture {
  Domain dom;
  Program prog;
  int e, t;
  ConstId a, b, c, d;
  explicit Fixture(const char* text = kTc)
      : prog(ParseProgram(text, &dom).value()),
        e(prog.FindPredicate("E")),
        t(prog.FindPredicate("T")),
        a(dom.InternSymbol("a")),
        b(dom.InternSymbol("b")),
        c(dom.InternSymbol("c")),
        d(dom.InternSymbol("d")) {}
};

TEST(EngineUpdate, EmptyBatchIsNoop) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  UpdateResult r = eng.Update(EdbDelta<BoolS>{}, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kNoop);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));
}

TEST(EngineUpdate, InsertOnlyCascades) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Add(f.e, {f.b, f.c}, true);
  batch.Add(f.e, {f.c, f.d}, true);
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kInsertOnly);
  EXPECT_TRUE(r.converged);
  // The cascade reached the two-hop closure through BOTH new edges.
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.c}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.d}));
}

TEST(EngineUpdate, DredDeleteWithSurvivingDerivation) {
  // a→b twice over (direct edge AND a→c→b): deleting the direct edge
  // must keep T(a,b) alive through the alternative derivation.
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  edb.pops(f.e).Set({f.a, f.c}, true);
  edb.pops(f.e).Set({f.c, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));  // rederived via a→c→b
  EXPECT_GE(r.deleted_rederived, 1u);
  EXPECT_FALSE(edb.pops(f.e).Contains({f.a, f.b}));
}

TEST(EngineUpdate, DredCascadingDelete) {
  // Chain a→b→c→d: deleting a→b must take out T(a,b), T(a,c), T(a,d) —
  // the whole cone — and nothing else.
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  edb.pops(f.e).Set({f.b, f.c}, true);
  edb.pops(f.e).Set({f.c, f.d}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.b}));
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.c}));
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.c}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.c, f.d}));
}

TEST(EngineUpdate, TropDeleteRestoresLongerPath) {
  // Shortcut a→b (1) over a→c→b (2+3): deleting the shortcut must
  // surface the longer distance, not drop the tuple.
  Fixture f;
  EdbInstance<TropS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, 1.0);
  edb.pops(f.e).Set({f.a, f.c}, 2.0);
  edb.pops(f.e).Set({f.c, f.b}, 3.0);
  Engine<TropS> eng(f.prog, edb);
  IdbInstance<TropS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), 1.0);

  EdbDelta<TropS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), 5.0);
}

TEST(EngineUpdate, NaturalsExactDeleteKeepsSurvivingCounts) {
  // ℕ counts derivations: T(a,b) has two (direct + via c). Deleting the
  // direct edge subtracts exactly that derivation's count — the other
  // survives, no over-deletion, no re-derive pass.
  Fixture f;
  EdbInstance<NatS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, uint64_t{1});
  edb.pops(f.e).Set({f.a, f.c}, uint64_t{1});
  edb.pops(f.e).Set({f.c, f.b}, uint64_t{1});
  Engine<NatS> eng(f.prog, edb);
  IdbInstance<NatS> idb(f.prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{2});

  EdbDelta<NatS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kExactDeletion);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{1});
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.c}), uint64_t{1});
}

TEST(EngineUpdate, NaturalsSaturationFallsBackToRecompute) {
  // An ∞-weighted fact saturates downstream counts; the exact cascade
  // cannot subtract from ∞ and must hand over to a full recompute — with
  // the EDB batch still applied exactly once.
  Fixture f;
  EdbInstance<NatS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.a}, NatS::kInf);  // ⇒ T(a,·) = ∞
  edb.pops(f.e).Set({f.a, f.b}, uint64_t{1});
  edb.pops(f.e).Set({f.b, f.c}, uint64_t{1});
  Engine<NatS> eng(f.prog, edb);
  IdbInstance<NatS> idb(f.prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), NatS::kInf);

  EdbDelta<NatS> batch;
  batch.Delete(f.e, {f.a, f.a});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kRecompute);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{1});
  EXPECT_FALSE(edb.pops(f.e).Contains({f.a, f.a}));

  EdbInstance<NatS> gold_edb(f.prog);
  gold_edb.pops(f.e) = edb.pops(f.e);
  EXPECT_TRUE(idb.Equals(Golden<NatS>(f.prog, gold_edb, {}).idb));
}

TEST(EngineUpdate, BoolEdbDeltaForcesRecompute) {
  constexpr const char* kGuarded = R"(
    edb E/2.
    bedb Keep/1.
    idb T/2.
    T(X,Y) :- { E(X,Y) | Keep(X) }.
  )";
  Domain dom;
  auto prog_or = ParseProgram(kGuarded, &dom);
  ASSERT_TRUE(prog_or.ok()) << prog_or.status().ToString();
  const Program& prog = prog_or.value();
  const int e = prog.FindPredicate("E");
  const int keep = prog.FindPredicate("Keep");
  const int t = prog.FindPredicate("T");
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");

  EdbInstance<BoolS> edb(prog);
  edb.pops(e).Set({a, b}, true);
  edb.boolean(keep).Set({a}, true);
  Engine<BoolS> eng(prog, edb);
  IdbInstance<BoolS> idb(prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  ASSERT_TRUE(idb.idb(t).Get({a, b}));

  EdbDelta<BoolS> batch;
  batch.DeleteBool(keep, {a});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kRecompute);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(idb.idb(t).Contains({a, b}));
  EXPECT_FALSE(edb.boolean(keep).Contains({a}));
}

TEST(EngineUpdate, DeleteThenReAddLandsOnAddedValue) {
  Fixture f;
  EdbInstance<TropS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, 1.0);
  Engine<TropS> eng(f.prog, edb);
  IdbInstance<TropS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<TropS> batch;
  batch.Delete(f.e, {f.a, f.b});
  batch.Add(f.e, Tuple{f.a, f.b}, 7.0);
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(edb.pops(f.e).Get({f.a, f.b}), 7.0);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), 7.0);
}

TEST(EngineUpdate, DeleteAbsentFactIsNoop) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.c, f.d});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));
}

}  // namespace
}  // namespace datalogo
