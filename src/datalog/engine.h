// The support-based relational engine: naive evaluation (Algorithm 1) and
// semi-naive evaluation with the differential rule (Algorithm 3, Theorems
// 6.4/6.5). Sound for naturally ordered semirings, where ⊥ = 0 is both the
// additive identity and absorbing, so tuples outside the stored support can
// never influence a result. For general POPS use the grounded engine
// (grounder.h).
#ifndef DATALOGO_DATALOG_ENGINE_H_
#define DATALOGO_DATALOG_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/core/status.h"
#include "src/core/thread_pool.h"
#include "src/datalog/ast.h"
#include "src/datalog/instance.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"
#include "src/semiring/deletion.h"
#include "src/semiring/traits.h"

namespace datalogo {

/// Outcome of an evaluation run.
template <Pops P>
struct EvalResult {
  IdbInstance<P> idb;
  /// Number of ICO applications (naive) or loop iterations (semi-naive).
  int steps = 0;
  bool converged = false;
  /// Join-work counter: generator entries visited (for the Sec. 6 benches).
  uint64_t work = 0;
};

/// OK iff the relational Engine can evaluate `prog`. It cannot evaluate
/// negated POPS atoms (`!R(..)` applies the POPS's Not, which is not
/// ⊥-preserving, so support-based joins miss tuples outside the stored
/// support); those programs need the grounded engine (grounder.h).
/// Engine's constructor aborts on them as a library-misuse guard, so
/// callers holding untrusted programs check here first.
inline Status CheckEngineSupport(const Program& prog) {
  for (const Rule& rule : prog.rules()) {
    for (const SumProduct& sp : rule.disjuncts) {
      for (const Atom& a : sp.atoms) {
        if (!a.negated) continue;
        return InvalidArgument(
            "negated POPS atom !" + prog.predicate(a.pred).name +
            " in a rule for " + prog.predicate(rule.head.pred).name +
            ": the relational engine cannot evaluate it; negation needs "
            "the grounded engine (grounder.h)");
      }
    }
  }
  return Status::Ok();
}

/// Tuning knobs for Engine.
struct EngineOptions {
  /// Worker parallelism for ICO applications. <= 1 runs the sequential
  /// kernel unchanged; N > 1 fans compiled disjuncts (and row-range
  /// shards of each disjunct's driver entry list) out across N threads
  /// and reduces the per-task partial relations in a fixed order, so
  /// fixpoints, `work` counters and index-cache counters are identical
  /// to the sequential run (see the class comment). 0 = one thread per
  /// hardware core.
  int num_threads = 1;
  /// Target driver (level-0) entries per parallel shard. Deliberately
  /// independent of num_threads: the shard structure — and therefore the
  /// deterministic reduce tree — depends only on the data, so results
  /// are identical at every thread count, not merely per thread count.
  int shard_rows = 256;
  /// Index-tier policy (relation.h): kAuto picks a direct (offset-
  /// addressed) index per (relation, key-spec) when the key column is a
  /// dense ConstId range, else hash; kHash/kDirect force one tier.
  /// Fixpoints, `work` and all four index counters are bit-identical
  /// across tiers — only probe cost and the new probe counters move.
  IndexKind index_kind = IndexKind::kAuto;
};

/// How Engine::Update serviced one batch (reported for tests/benches).
enum class UpdateStrategy {
  kNoop,           ///< empty batch: nothing ran
  kInsertOnly,     ///< one warm insert cascade, no deletes
  kExactDeletion,  ///< subtract cascade (count-carrying carriers); also
                   ///< covers the trailing insert cascade of a mixed batch
  kDred,           ///< over-delete / re-derive (dioid carriers)
  kRecompute,      ///< full fixpoint from the mutated EDB
};

/// Outcome of one Engine::Update call.
struct UpdateResult {
  /// Cascade rounds run, seed evaluations included (for kRecompute: the
  /// fallback run's steps).
  int rounds = 0;
  bool converged = false;
  /// Generator entries visited servicing the batch.
  uint64_t work = 0;
  /// DRed only: pruned tuples the re-derivation brought back — each had a
  /// surviving derivation that avoided every deleted fact.
  uint64_t deleted_rederived = 0;
  UpdateStrategy strategy = UpdateStrategy::kNoop;
};

/// Relational evaluation of a datalog° program over a naturally ordered
/// semiring. Compiles each sum-product into a flat join program once —
/// index-key sources, per-entry bind/check slots, head slots — then
/// applies the ICO by iterative index nested-loop joins over relation
/// supports, reusing preallocated per-disjunct buffers so the inner loop
/// does not allocate.
///
/// With EngineOptions::num_threads > 1 each ICO application runs in three
/// phases: a sequential *prepare* phase resolves every disjunct's indexes
/// through the cache (all cache mutation and counter traffic happens
/// here, in the same order as a sequential run — so `index_builds`,
/// `idb_index_builds/hits` etc. are bit-identical), a parallel *execute*
/// phase fans (disjunct, driver-row-range shard) tasks out to a
/// ThreadPool — each task reads only immutable prepared state and writes
/// a task-private partial Relation and work counter — and a sequential
/// *reduce* phase merges the partials into the head relations in (rule,
/// disjunct [, occurrence], shard) order. Because shard s's driver
/// entries all precede shard s+1's, that fixed order replays the exact
/// head-merge sequence of the sequential kernel, so fixpoints and `work`
/// are identical at every thread count (for ⊕ that is exactly
/// associative — every shipped discrete/min/max semiring; a floating-
/// point *sum* ⊕ may differ from sequential by reassociation rounding
/// across shard-boundary key collisions, but is still deterministic for
/// a fixed shard_rows).
///
/// Thread safety: internal parallelism is safe by the phase structure
/// above (mutable caches and scratch pools are touched only in the
/// sequential phases). One Engine object must still not be *shared*
/// across caller threads without external synchronization — use one
/// Engine per thread; compilation is cheap.
template <NaturallyOrderedSemiring P>
class Engine {
 public:
  Engine(const Program& prog, const EdbInstance<P>& edb,
         EngineOptions options = {})
      : prog_(&prog), edb_(&edb), options_(options) {
    pops_cache_.set_kind(options_.index_kind);
    bool_cache_.set_kind(options_.index_kind);
    Compile();
    int threads = options_.num_threads;
    if (threads == 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }

  /// Threads an ICO application executes on (1 = sequential kernel).
  int num_threads() const { return pool_ ? pool_->concurrency() : 1; }

  /// Indexes constructed or refreshed so far through the caches.
  uint64_t index_builds() const {
    return pops_cache_.builds() + bool_cache_.builds();
  }
  /// Index lookups served from cache without rebuilding.
  uint64_t index_hits() const {
    return pops_cache_.hits() + bool_cache_.hits();
  }
  /// Cache traffic attributable to IDB relations (deltas, T(t), T(t-1));
  /// EDB indexes are built once per run, so these counters isolate how
  /// well the per-iteration delta indexes amortize.
  uint64_t idb_index_builds() const { return idb_index_builds_; }
  uint64_t idb_index_hits() const { return idb_index_hits_; }

  /// Join-kernel lookups served by hash-map indexes (key-Tuple hash +
  /// probe each) vs direct offset-addressed indexes (one bounds-checked
  /// array access each). Tier selection shifts traffic between the two —
  /// the bench evidence that kDirect/kAuto removes hashing from the hot
  /// path. Deterministic across thread counts (shard counts reduce in
  /// fixed order), but NOT pinned across index kinds by design.
  uint64_t hash_probes() const { return hash_probes_; }
  uint64_t direct_probes() const { return direct_probes_; }
  /// Always 0; kept only for perfbench/harness.cc's kernel.* metrics.
  uint64_t join_batched_rows() const { return 0; }
  uint64_t values_batched() const { return 0; }
  /// Rows appended to cached indexes by incremental refreshes instead of
  /// full rebuilds (relation.h IndexCache) — nonzero on every delta-driven
  /// run; each appended row replaces a whole-relation re-scan.
  uint64_t idx_incremental_appends() const {
    return pops_cache_.incremental_appends() +
           bool_cache_.incremental_appends();
  }
  /// Rows scanned building/refreshing EDB indexes. EDB relations never
  /// mutate during a run, so after the first build per (relation, key)
  /// this must not move — the regression surface for cache-hit paths
  /// that silently re-scan full columns (asserted in
  /// engine_index_test).
  uint64_t edb_index_scan_rows() const { return edb_index_scan_rows_; }

  /// Algorithm 1: J ← F(J) from ⊥ until fixpoint (or budget).
  EvalResult<P> Naive(int max_steps) const {
    return NaiveWithRules(all_rules_, IdbInstance<P>(*prog_), max_steps);
  }

  /// Naive evaluation restricted to a rule subset, iterating from (and
  /// re-seeding each round with) `frozen` — the building block for
  /// stratified evaluation (Sec. 4.5 "Multiple Value Spaces", Sec. 6.4):
  /// lower-stratum relations live in `frozen` and stay fixed.
  EvalResult<P> NaiveWithRules(const std::vector<int>& rule_ids,
                               const IdbInstance<P>& frozen,
                               int max_steps) const {
    IdbInstance<P> j = frozen;
    // `next` persists across iterations: content moves into `j` through
    // the stable Relation objects (TakeContentsFrom), so the index cache
    // stays keyed to live uids instead of orphaning entries every round.
    IdbInstance<P> next = frozen;
    uint64_t work = 0;
    // Units are loop-invariant: the resolvers capture `j` itself, whose
    // Relation objects stay stable across iterations (TakeContentsFrom
    // moves contents, not objects) — build once, reuse every round.
    const std::vector<EvalUnit> units = NaiveUnits(rule_ids, j);
    for (int t = 0; t < max_steps; ++t) {
      SweepCaches();
      if (t > 0) next.CopyContentsFrom(frozen);
      ApplyUnits(units, &next, &work);
      if (next.Equals(j)) {
        return {std::move(j), t, true, work};
      }
      j.TakeContentsFrom(&next);
      j.CompactAll();  // tombstone hygiene between fixpoint iterations
    }
    return {std::move(j), max_steps, false, work};
  }

  /// Algorithm 3 WITHOUT the differential rule — the ablation the paper
  /// discusses in Sec. 6.3: δ(t) = F(J(t)) ⊖ J(t) computed by a full ICO
  /// application. Correct (Theorem 6.4) but does as much join work as
  /// naive; exists to quantify what Eq. (64)/(65) buy.
  EvalResult<P> SemiNaiveNonDifferential(int max_steps) const
    requires CompleteDistributiveDioid<P>
  {
    IdbInstance<P> j(*prog_);
    IdbInstance<P> f(*prog_);  // persistent: Clear + refill per iteration
    uint64_t work = 0;
    for (int t = 0; t < max_steps; ++t) {
      SweepCaches();
      f.ClearAll();
      ApplyIco(j, &f, &work);
      bool any_delta = false;
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& f_rel = f.idb(pred);
        Relation<P>& j_rel = j.idb(pred);
        const uint32_t rows = f_rel.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!f_rel.RowLive(r)) continue;
          typename P::Value d =
              P::Minus(f_rel.ValueAt(r), j_rel.Get(f_rel.View(r)));
          if (!P::Eq(d, P::Zero())) {
            j_rel.Merge(f_rel.View(r), d);
            any_delta = true;
          }
        }
      }
      if (!any_delta) {
        return {std::move(j), t, true, work};
      }
      j.CompactAll();  // tombstone hygiene between fixpoint iterations
    }
    return {std::move(j), max_steps, false, work};
  }

  /// Algorithm 3 with the differential rule (Eq. 65): requires a complete
  /// distributive dioid for ⊖. Returns the same fixpoint as Naive
  /// (Theorem 6.4).
  EvalResult<P> SemiNaive(int max_steps) const
    requires CompleteDistributiveDioid<P>
  {
    uint64_t work = 0;
    IdbInstance<P> t_old(*prog_);   // T(t-1)
    IdbInstance<P> t_new(*prog_);   // T(t)
    IdbInstance<P> delta(*prog_);   // δ(t-1)

    // t = 0: δ(0) = F(0) ⊖ 0 = F(0); T(1) = δ(0).
    ApplyIco(t_new /*empty*/, &delta, &work);
    bool empty = true;
    for (int pred : prog_->IdbPredicates()) {
      if (!delta.idb(pred).empty()) empty = false;
    }
    if (empty) return {std::move(t_new), 1, true, work};
    t_new.CopyContentsFrom(delta);

    // Scratch instances persist across iterations (Clear + refill).
    // δ(t) is diffed DIRECTLY into `delta` (safe: the candidate is fully
    // computed before the old deltas are cleared, and DiffRows reads only
    // candidate and t_new), so each round's delta mutation is a Clear
    // plus fresh Sets — the soft pattern the index cache refreshes
    // incrementally (reset-and-reappend) instead of rebuilding, and one
    // full content move per round cheaper than staging through a
    // next_delta instance.
    IdbInstance<P> candidate(*prog_);
    // Loop-invariant units: the resolvers capture the persistent
    // t_new/delta/t_old instances, whose Relation objects stay stable
    // across iterations.
    const std::vector<EvalUnit> units = DifferentialUnits(t_new, delta, t_old);
    for (int t = 1; t < max_steps; ++t) {
      SweepCaches();
      // Candidate C_i = ⊕_ℓ G_i(.., δ_ℓ, ..) using new/old T per Eq. (64).
      candidate.ClearAll();
      ApplyUnits(units, &candidate, &work);
      // δ(t) = C ⊖ T(t), per row of C's support — into `delta` itself.
      delta.ClearAll();
      bool all_empty = true;
      for (int pred : prog_->IdbPredicates()) {
        if (DiffRows(candidate.idb(pred), t_new.idb(pred),
                     &delta.idb(pred))) {
          all_empty = false;
        }
      }
      if (all_empty) {
        return {std::move(t_new), t + 1, true, work};
      }
      // T(t+1) = T(t) ⊕ δ(t).
      t_old.CopyContentsFrom(t_new);
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(delta.idb(pred), &t_new.idb(pred));
      }
      t_new.CompactAll();  // tombstone hygiene between fixpoint iterations
    }
    return {std::move(t_new), max_steps, false, work};
  }

  /// Incremental maintenance — the warm-continuation entry point. Given
  /// `idb` holding the converged fixpoint of the engine's CURRENT EDB
  /// (Naive/SemiNaive output, or a previous converged Update), applies one
  /// batch of EDB mutations in place and brings `idb` to the fixpoint of
  /// the mutated EDB without re-running the whole fixpoint.
  ///
  ///  * Inserts run exactly one semi-naive delta cascade seeded from the
  ///    new facts: the seed evaluates the multilinear cross terms of every
  ///    rule body over the added mass (Δ at one changed-EDB occurrence,
  ///    the post-mutation EDB before it, pre-mutation snapshots after it —
  ///    the EDB transposition of Eq. (64)); the rounds are the ordinary
  ///    differential rule. Valid in ANY carrier: E_new = E_old ⊕ Δ holds
  ///    by definition of the ⊕-merge, and multilinearity makes the cross
  ///    terms exactly the fresh one-step mass, no ⊖ required.
  ///  * Deletes go through support counting where the carrier supports it
  ///    (SupportsExactDeletion — ℕ, ℕ[X], products of such: the removed
  ///    derivation mass is subtracted back out row by row, so
  ///    over-deletion is impossible by construction), and through DRed
  ///    (over-delete the affected cone, then re-derive) on complete
  ///    distributive dioids. Selective-⊕ dioids (min/max/or) prune only
  ///    tuples whose removed mass ties the stored optimum — what keeps the
  ///    affected cone small. Carriers with neither capability recompute.
  ///  * Boolean-EDB changes always recompute: Boolean facts appear as
  ///    (possibly negated) residual conditions, outside the ⊕-linear
  ///    differential algebra.
  ///
  /// `edb` must be the engine's own instance — mutating it in place keeps
  /// relation uids stable, so cached EDB indexes refresh incrementally
  /// (appended rows) instead of rebuilding, and `idb`'s persistent
  /// Relation objects keep their cached delta indexes attached across
  /// Update calls. Within one batch, deletes apply before adds (a fact
  /// deleted and re-added ends up with exactly the added value). The
  /// converged result is bit-identical to a full recompute from the
  /// mutated EDB; on a blown budget, converged=false and `idb` is left
  /// mid-cascade like the fixpoint entry points' partial results.
  UpdateResult Update(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                      IdbInstance<P>* idb, int max_steps) const {
    DLO_CHECK_MSG(edb == edb_, "Update must mutate the engine's own EDB");
    UpdateResult res;
    res.converged = true;
    if (batch.empty()) return res;

    bool recompute = !batch.bool_adds.empty() || !batch.bool_deletes.empty();
    bool deletes_applied = false;

    if (!recompute && !batch.pops_deletes.empty()) {
      if constexpr (SupportsExactDeletion<P>) {
        res.strategy = UpdateStrategy::kExactDeletion;
        const CascadeOutcome oc =
            ExactDeleteCascade(batch, edb, idb, max_steps, &res);
        if (oc == CascadeOutcome::kBudget) {
          res.converged = false;
          return res;
        }
        deletes_applied = true;
        if (oc == CascadeOutcome::kInexact) recompute = true;
      } else if constexpr (CompleteDistributiveDioid<P>) {
        // DRed folds the batch's adds into its re-derivation seed, so it
        // services the whole batch in one warm continuation.
        res.strategy = UpdateStrategy::kDred;
        DredUpdate(batch, edb, idb, max_steps, &res);
        return res;
      } else {
        recompute = true;  // no exact counts, no ⊖: nothing cheaper exists
      }
    }
    if (recompute) {
      res.strategy = UpdateStrategy::kRecompute;
      for (const auto& d : batch.bool_deletes) {
        edb->boolean(d.pred).Erase(d.tuple);
      }
      for (const auto& a : batch.bool_adds) {
        edb->boolean(a.pred).Set(a.tuple, true);
      }
      if (!deletes_applied) {
        for (const auto& d : batch.pops_deletes) {
          edb->pops(d.pred).Erase(d.tuple);
        }
      }
      for (const auto& a : batch.pops_adds) {
        edb->pops(a.pred).Merge(a.tuple, a.value);
      }
      Recompute(idb, max_steps, &res);
      return res;
    }
    if (!batch.pops_adds.empty()) {
      if (res.strategy == UpdateStrategy::kNoop) {
        res.strategy = UpdateStrategy::kInsertOnly;
      }
      InsertCascade(batch, edb, idb, max_steps, &res);
    }
    return res;
  }

 private:
  static constexpr ConstId kUnbound = static_cast<ConstId>(-1);

  /// Where a key or head slot gets its constant from: a rule-variable slot
  /// (var ≥ 0, statically guaranteed bound by then) or a literal constant.
  struct ValueSource {
    int var = -1;
    ConstId constant = 0;
  };

  /// What to do with one non-key position of a matched index entry:
  /// bind a fresh variable from it, or check it against a variable bound
  /// earlier within the same atom (repeated-variable pattern, e.g. E(X,X)).
  struct EntryOp {
    enum class Kind : uint8_t { kBind, kCheck };
    Kind kind = Kind::kBind;
    int pos = 0;  ///< argument position in the matched tuple
    int var = 0;  ///< rule-variable slot to bind or compare
  };

  /// One join generator — a POPS atom or a positive Boolean condition atom
  /// — compiled to a flat program step: which positions form the index
  /// key, where each key constant comes from, and what each remaining
  /// position binds or checks. No Term inspection happens at run time.
  struct Generator {
    bool is_bool = false;
    bool is_idb = false;       ///< resolve through the per-call resolver
    int pred = -1;
    int atom_index = -1;       ///< into sp.atoms or sp.conditions
    std::vector<int> key_positions;   ///< arg positions bound beforehand
    std::vector<ValueSource> key_sources;  ///< parallel to key_positions
    std::vector<EntryOp> entry_ops;   ///< non-key positions, in arg order
  };

  struct CompiledDisjunct {
    int disjunct_index = 0;
    const SumProduct* sp = nullptr;
    std::vector<std::pair<int, ConstId>> prebindings;
    std::vector<Generator> generators;
    std::vector<const Condition*> residual;
    /// The innermost generator is a POPS atom whose entry ops are all
    /// binds, so ExecuteShard drains its entry lists in one tight loop.
    bool drain_innermost = false;
    std::vector<int> idb_atoms;  ///< indexes of IDB atoms in sp->atoms
    std::vector<int> occ_of_atom;  ///< atom index → IDB occurrence, or -1
    std::vector<ValueSource> head_sources;  ///< one per head argument
    int scratch_id = -1;  ///< into scratch_ (reusable per-disjunct buffers)
  };

  struct CompiledRule {
    const Rule* rule = nullptr;
    std::vector<CompiledDisjunct> disjuncts;
  };

  /// Reusable join-state buffers for one disjunct evaluation, sized by
  /// SizeScratch(). Executing a disjunct allocates nothing: bindings,
  /// per-level join keys, per-level accumulators and the head tuple all
  /// live here. One Scratch belongs to exactly one concurrent task — the
  /// sequential kernel keeps one per disjunct; the parallel kernel keeps
  /// one per (disjunct, shard) task slot.
  struct Scratch {
    std::vector<ConstId> binding;          ///< rule-variable slots
    std::vector<typename P::Value> acc;    ///< acc[g] = value entering level g
    std::vector<Tuple> keys;               ///< per-level key buffers
    Tuple head;                            ///< head tuple buffer
    std::vector<const RowIdList*> entries;  ///< per-level matched row ids
    std::vector<std::size_t> next;         ///< per-level entry cursor
  };

  /// Per-generator inputs of one disjunct evaluation, resolved during the
  /// sequential prepare phase (the only phase that touches the index
  /// caches and build counters). Immutable during the execute phase, so
  /// any number of shard tasks of the same evaluation may read it
  /// concurrently.
  struct PreparedGens {
    std::vector<const RelationIndex<P>*> pops_idx;
    std::vector<const RelationIndex<BoolS>*> bool_idx;
    std::vector<const Relation<P>*> pops_rel;    ///< row-id decode target
    std::vector<const Relation<BoolS>*> bool_rel;
    /// Per-level representation of the serving index, so the execute
    /// phase can classify each Lookup into hash_probes/direct_probes
    /// without re-virtual-dispatching on the index.
    std::vector<IndexRepr> repr;
    /// The driver: level 0's matched entry list (its key depends only on
    /// prebindings, so it is known before execution and is what shards
    /// partition). Null iff the disjunct has no generators.
    const RowIdList* level0 = nullptr;
  };

  /// One unit of evaluation for ApplyUnits: a disjunct plus the resolver that
  /// maps its IDB atoms to concrete relation instances (naive: the
  /// current J; semi-naive: the Eq. (64) new/delta/old split for one
  /// occurrence index).
  struct EvalUnit {
    const CompiledRule* cr;
    const CompiledDisjunct* cd;
    std::function<const Relation<P>&(int)> resolver;
  };

  /// Reusable per-task state of the parallel execute phase: join scratch,
  /// the task-private partial head relation, and the task's work counter.
  struct TaskState {
    Scratch scratch;
    Relation<P> partial;
    uint64_t work = 0;
    uint64_t hash_probes = 0;    ///< task-private, reduced in shard order
    uint64_t direct_probes = 0;
    const CompiledDisjunct* sized_for = nullptr;  ///< scratch shape guard
  };

  void Compile() {
    for (std::size_t rule_index = 0; rule_index < prog_->rules().size();
         ++rule_index) {
      const Rule& rule = prog_->rules()[rule_index];
      CompiledRule cr;
      cr.rule = &rule;
      for (std::size_t d = 0; d < rule.disjuncts.size(); ++d) {
        const SumProduct& sp = rule.disjuncts[d];
        CompiledDisjunct cd;
        cd.disjunct_index = static_cast<int>(d);
        cd.sp = &sp;

        // Pre-bindings from `Var = const` equality chains.
        std::vector<ConstId> pre(rule.num_vars, kUnbound);
        bool changed = true;
        while (changed) {
          changed = false;
          for (const Condition& c : sp.conditions) {
            if (c.kind != Condition::Kind::kCompare || c.op != CmpOp::kEq) {
              continue;
            }
            auto ground = [&](const Term& t) -> ConstId {
              if (!t.IsVar()) return t.constant;
              return pre[t.var];
            };
            auto bind = [&](const Term& a, const Term& b) {
              if (a.IsVar() && pre[a.var] == kUnbound &&
                  ground(b) != kUnbound) {
                pre[a.var] = ground(b);
                changed = true;
              }
            };
            bind(c.lhs, c.rhs);
            bind(c.rhs, c.lhs);
          }
        }
        std::vector<bool> bound(rule.num_vars, false);
        for (int v = 0; v < rule.num_vars; ++v) {
          if (pre[v] != kUnbound) {
            cd.prebindings.emplace_back(v, pre[v]);
            bound[v] = true;
          }
        }

        auto add_generator = [&](bool is_bool, int index, const Atom& a) {
          Generator g;
          g.is_bool = is_bool;
          g.atom_index = index;
          g.pred = a.pred;
          g.is_idb =
              !is_bool && prog_->predicate(a.pred).kind == PredKind::kIdb;
          // One pass over the argument positions: positions whose value is
          // known before this generator (constants and already-bound
          // variables) become index-key slots; the rest become bind/check
          // ops executed per matched entry, in argument order, so a
          // repeated variable is bound by its first occurrence before its
          // later occurrences compare against it.
          std::vector<bool> bound_before = bound;
          for (std::size_t p = 0; p < a.args.size(); ++p) {
            const Term& t = a.args[p];
            if (!t.IsVar()) {
              g.key_positions.push_back(static_cast<int>(p));
              g.key_sources.push_back(ValueSource{-1, t.constant});
            } else if (bound_before[t.var]) {
              g.key_positions.push_back(static_cast<int>(p));
              g.key_sources.push_back(ValueSource{t.var, 0});
            } else if (!bound[t.var]) {
              g.entry_ops.push_back(
                  EntryOp{EntryOp::Kind::kBind, static_cast<int>(p), t.var});
              bound[t.var] = true;
            } else {
              g.entry_ops.push_back(
                  EntryOp{EntryOp::Kind::kCheck, static_cast<int>(p), t.var});
            }
          }
          cd.generators.push_back(std::move(g));
        };

        for (std::size_t i = 0; i < sp.atoms.size(); ++i) {
          const Atom& a = sp.atoms[i];
          DLO_CHECK_MSG(!a.negated,
                        "negated POPS atoms require the grounded engine");
          add_generator(false, static_cast<int>(i), a);
          if (prog_->predicate(a.pred).kind == PredKind::kIdb) {
            cd.idb_atoms.push_back(static_cast<int>(i));
          }
        }
        for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
          const Condition& c = sp.conditions[i];
          if (c.kind != Condition::Kind::kBoolAtom) continue;
          bool binds_new = false;
          for (const Term& t : c.atom.args) {
            if (t.IsVar() && !bound[t.var]) binds_new = true;
          }
          if (binds_new) {
            add_generator(true, static_cast<int>(i), c.atom);
          }
        }
        // Residual checks: everything except bool atoms used as
        // generators — minus compile-time-decidable compares. A compare
        // whose sides are both constants or prebound variables has one
        // truth value for the whole run (prebound variables are never
        // rebound: later occurrences compile to key positions), so
        // re-grounding it per emitted row is pure waste. Always-true
        // ones are dropped here; always-false ones stay residual, so a
        // dead disjunct keeps the exact work/probe trace of its join
        // while emitting nothing.
        for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
          const Condition& c = sp.conditions[i];
          bool is_generator = false;
          for (const Generator& g : cd.generators) {
            if (g.is_bool && g.atom_index == static_cast<int>(i)) {
              is_generator = true;
              break;
            }
          }
          if (is_generator) continue;
          if (c.kind == Condition::Kind::kCompare) {
            std::optional<bool> decided = DecideGroundCompare(c, pre);
            if (decided.has_value() && *decided) continue;
          }
          cd.residual.push_back(&c);
        }
        if (!cd.generators.empty()) {
          const Generator& last = cd.generators.back();
          cd.drain_innermost =
              !last.is_bool &&
              std::none_of(last.entry_ops.begin(), last.entry_ops.end(),
                           [](const EntryOp& op) {
                             return op.kind == EntryOp::Kind::kCheck;
                           });
        }

        // O(1) atom-index → IDB-occurrence map for the semi-naive
        // differential rule (Eq. 64): the resolver must not re-scan
        // idb_atoms on every atom resolution of every iteration.
        cd.occ_of_atom.assign(sp.atoms.size(), -1);
        for (std::size_t k = 0; k < cd.idb_atoms.size(); ++k) {
          cd.occ_of_atom[cd.idb_atoms[k]] = static_cast<int>(k);
        }

        // Head slots: range restriction (validate.cc) guarantees every
        // head variable is bound once all generators have run.
        for (const Term& t : rule.head.args) {
          if (t.IsVar()) {
            DLO_CHECK_MSG(bound[t.var], "unbound head variable");
            cd.head_sources.push_back(ValueSource{t.var, 0});
          } else {
            cd.head_sources.push_back(ValueSource{-1, t.constant});
          }
        }

        // Reusable evaluation buffers, exactly sized for this disjunct
        // (the sequential kernel's one-task-per-disjunct slots).
        cd.scratch_id = static_cast<int>(scratch_.size());
        Scratch sc;
        SizeScratch(rule, cd, &sc);
        scratch_.push_back(std::move(sc));
        prepared_.emplace_back();

        cr.disjuncts.push_back(std::move(cd));
      }
      compiled_.push_back(std::move(cr));
      all_rules_.push_back(static_cast<int>(rule_index));
    }
  }

  /// Bounds cache memory between joining steps — the only time no
  /// RelationIndex references are live.
  void SweepCaches() const {
    pops_cache_.MaybeEvict();
    bool_cache_.MaybeEvict();
  }

  /// F(J) evaluated into `out` (fresh instance), counting join work.
  void ApplyIco(const IdbInstance<P>& j, IdbInstance<P>* out,
                uint64_t* work) const {
    ApplyUnits(NaiveUnits(all_rules_, j), out, work);
  }

  /// The naive-evaluation units for a rule subset: every disjunct of every
  /// listed rule in list order, resolving IDB atoms against `j`.
  std::vector<EvalUnit> NaiveUnits(const std::vector<int>& rule_ids,
                                   const IdbInstance<P>& j) const {
    std::vector<EvalUnit> units;
    for (int r : rule_ids) {
      DLO_CHECK(r >= 0 && r < static_cast<int>(compiled_.size()));
      const CompiledRule& cr = compiled_[r];
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        const CompiledDisjunct* cdp = &cd;
        units.push_back(EvalUnit{
            &cr, cdp,
            [this, cdp, &j](int atom_index) -> const Relation<P>& {
              const int pred = cdp->sp->atoms[atom_index].pred;
              if (prog_->predicate(pred).kind != PredKind::kIdb) {
                return edb_->pops(pred);
              }
              return j.idb(pred);
            }});
      }
    }
    return units;
  }

  /// δ = candidate ⊖ base for one predicate, appended into *out in
  /// candidate's row order; returns true iff any nonzero difference was
  /// stored. The ⊖ scan shared by SemiNaive and the update cascades.
  bool DiffRows(const Relation<P>& candidate, const Relation<P>& base,
                Relation<P>* out) const
    requires CompleteDistributiveDioid<P>
  {
    bool any = false;
    const uint32_t rows = candidate.num_rows();
    for (uint32_t r = 0; r < rows; ++r) {
      if (!candidate.RowLive(r)) continue;
      typename P::Value d =
          P::Minus(candidate.ValueAt(r), base.Get(candidate.View(r)));
      if (!P::Eq(d, P::Zero())) {
        out->Set(candidate.View(r), d);
        any = true;
      }
    }
    return any;
  }

  /// T ⊕= δ row-wise for one predicate, in δ's row order.
  static void MergeRows(const Relation<P>& from, Relation<P>* into) {
    const uint32_t rows = from.num_rows();
    for (uint32_t r = 0; r < rows; ++r) {
      if (!from.RowLive(r)) continue;
      into->Merge(from.View(r), from.ValueAt(r));
    }
  }

  // ------- Incremental maintenance internals (Engine::Update) -------

  enum class CascadeOutcome { kConverged, kBudget, kInexact };

  /// Full recompute from the (already mutated) EDB into the caller's
  /// instance — the fallback every incremental route shares. Content is
  /// copied into `idb`'s existing Relation objects, so their uids (and
  /// any cached indexes) survive even the fallback.
  void Recompute(IdbInstance<P>* idb, int max_steps,
                 UpdateResult* res) const {
    EvalResult<P> r = [&] {
      if constexpr (CompleteDistributiveDioid<P>) return SemiNaive(max_steps);
      return Naive(max_steps);
    }();
    idb->CopyContentsFrom(r.idb);
    res->rounds += r.steps;
    res->work += r.work;
    if (!r.converged) res->converged = false;
  }

  /// Evaluates the multilinear EDB cross terms of F(T) over a set of
  /// changed EDB predicates, merging into `out`: for every disjunct and
  /// every occurrence ℓ of a changed predicate (in atom order), one
  /// sum-product with occurrence ℓ reading delta_by_pred, earlier changed
  /// occurrences reading the live EDB, later ones reading hi_by_pred
  /// (null entry = live EDB) and IDB atoms reading `idb`. With hi = the
  /// pre-mutation snapshots this is exactly F_new(T) "⊖" F_old(T)
  /// realized as fresh mass (multilinearity — no subtraction happens, so
  /// it is valid in any carrier); with hi = live it evaluates the
  /// one-step mass through the delta, the DRed affected seed.
  void EvalEdbCrossTerms(const std::vector<const Relation<P>*>& delta_by_pred,
                         const std::vector<const Relation<P>*>& hi_by_pred,
                         const IdbInstance<P>& idb, IdbInstance<P>* out,
                         uint64_t* work) const {
    std::vector<EvalUnit> units;
    std::vector<int> changed;
    for (const CompiledRule& cr : compiled_) {
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        changed.clear();
        for (std::size_t i = 0; i < cd.sp->atoms.size(); ++i) {
          if (cd.occ_of_atom[i] < 0 &&
              delta_by_pred[cd.sp->atoms[i].pred] != nullptr) {
            changed.push_back(static_cast<int>(i));
          }
        }
        const CompiledDisjunct* cdp = &cd;
        for (int ell_atom : changed) {
          units.push_back(EvalUnit{
              &cr, cdp,
              [this, cdp, ell_atom, &idb, &delta_by_pred,
               &hi_by_pred](int atom_index) -> const Relation<P>& {
                const int pred = cdp->sp->atoms[atom_index].pred;
                if (cdp->occ_of_atom[atom_index] >= 0) return idb.idb(pred);
                const Relation<P>* d = delta_by_pred[pred];
                if (d == nullptr) return edb_->pops(pred);  // unchanged
                if (atom_index < ell_atom) return edb_->pops(pred);
                if (atom_index == ell_atom) return *d;
                const Relation<P>* hi = hi_by_pred[pred];
                return hi != nullptr ? *hi : edb_->pops(pred);
              }});
        }
      }
    }
    ApplyUnits(units, out, work);
  }

  /// The differential units of one Eq. (64) round: for every disjunct
  /// with IDB atoms and every IDB occurrence ℓ, in (rule, disjunct, ℓ)
  /// order, a sum-product reading `cur` before ℓ, `delta` at ℓ and `prev`
  /// after it, EDB atoms reading the live EDB. The EDB-only disjuncts
  /// (E_i, Eq. 65) contribute nothing. References the caller's instances:
  /// rebuild only when they move.
  std::vector<EvalUnit> DifferentialUnits(const IdbInstance<P>& cur,
                                          const IdbInstance<P>& delta,
                                          const IdbInstance<P>& prev) const {
    std::vector<EvalUnit> units;
    for (const CompiledRule& cr : compiled_) {
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        const int occurrences = static_cast<int>(cd.idb_atoms.size());
        if (occurrences == 0) continue;
        const CompiledDisjunct* cdp = &cd;
        for (int ell = 0; ell < occurrences; ++ell) {
          units.push_back(EvalUnit{
              &cr, cdp,
              [this, cdp, ell, &cur, &delta,
               &prev](int atom_index) -> const Relation<P>& {
                const int pred = cdp->sp->atoms[atom_index].pred;
                const int occ = cdp->occ_of_atom[atom_index];
                if (occ < 0) return edb_->pops(pred);
                if (occ < ell) return cur.idb(pred);
                if (occ == ell) return delta.idb(pred);
                return prev.idb(pred);
              }});
        }
      }
    }
    return units;
  }

  /// δ = candidate relative to base, per IDB predicate: ⊖ on dioids. On
  /// carriers without ⊖ the candidate rows ARE the fresh derivation mass
  /// (the cross terms never double-count, by multilinearity), so each row
  /// is kept verbatim — unless the base already ⊕-absorbs it, which in
  /// the shipped carriers means a saturated value (ℕ's ∞, saturated
  /// polynomial coefficients). Dropping absorbed rows is what makes
  /// cascades through saturated cycles terminate, and is sound because an
  /// absorbed row can only produce further absorbed mass downstream: any
  /// one-step image a ⊗ c ⊗ b of mass c absorbed at a saturated tuple is
  /// itself absorbed by the a ⊗ T(u) ⊗ b mass the target already holds.
  bool DeltaFromCandidate(const IdbInstance<P>& candidate,
                          const IdbInstance<P>& base,
                          IdbInstance<P>* delta) const {
    bool any = false;
    for (int pred : prog_->IdbPredicates()) {
      const Relation<P>& c = candidate.idb(pred);
      if constexpr (CompleteDistributiveDioid<P>) {
        if (DiffRows(c, base.idb(pred), &delta->idb(pred))) any = true;
      } else {
        const Relation<P>& b = base.idb(pred);
        Relation<P>& out = delta->idb(pred);
        const uint32_t rows = c.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!c.RowLive(r)) continue;
          const typename P::Value bv = b.Get(c.View(r));
          if (P::Eq(P::Plus(bv, c.ValueAt(r)), bv)) continue;
          out.Set(c.View(r), c.ValueAt(r));
          any = true;
        }
      }
    }
    return any;
  }

  /// Differential rounds of a warm cascade: repeat candidate = Eq. (64)
  /// cross terms, δ = candidate relative to T, T ⊕= δ, until δ drains or
  /// the budget runs out (converged=false, T left mid-cascade).
  void RunMergeRounds(IdbInstance<P>* t_new, IdbInstance<P>* delta,
                      IdbInstance<P>* t_old, IdbInstance<P>* candidate,
                      int max_steps, UpdateResult* res,
                      uint64_t* work) const {
    const std::vector<EvalUnit> units =
        DifferentialUnits(*t_new, *delta, *t_old);
    while (true) {
      if (res->rounds >= max_steps) {
        res->converged = false;
        return;
      }
      SweepCaches();
      candidate->ClearAll();
      ApplyUnits(units, candidate, work);
      ++res->rounds;
      delta->ClearAll();
      if (!DeltaFromCandidate(*candidate, *t_new, delta)) return;
      t_old->CopyContentsFrom(*t_new);
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(delta->idb(pred), &t_new->idb(pred));
      }
      t_new->CompactAll();
    }
  }

  /// Insert-only cascade: snapshot the changed predicates, ⊕-merge the
  /// added facts into the live EDB, seed with the EDB cross terms, then
  /// run ordinary differential rounds from the warm T.
  void InsertCascade(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                     IdbInstance<P>* idb, int max_steps,
                     UpdateResult* res) const {
    const int n = prog_->num_predicates();
    std::vector<std::unique_ptr<Relation<P>>> owned;
    std::vector<const Relation<P>*> snap(n, nullptr);
    std::vector<Relation<P>*> delta_rel(n, nullptr);
    for (const auto& add : batch.pops_adds) {
      if (delta_rel[add.pred] != nullptr) continue;
      // Snapshot BEFORE the merges below: the seed's later-occurrence
      // slots must read the pre-mutation contents.
      owned.push_back(std::make_unique<Relation<P>>(edb->pops(add.pred)));
      snap[add.pred] = owned.back().get();
      owned.push_back(
          std::make_unique<Relation<P>>(edb->pops(add.pred).arity()));
      delta_rel[add.pred] = owned.back().get();
    }
    for (const auto& add : batch.pops_adds) {
      delta_rel[add.pred]->Merge(add.tuple, add.value);
      edb->pops(add.pred).Merge(add.tuple, add.value);
    }
    bool have_delta = false;
    for (int p = 0; p < n; ++p) {
      if (delta_rel[p] == nullptr) continue;
      if (delta_rel[p]->empty()) {
        delta_rel[p] = nullptr;  // all-⊥ adds: nothing actually changed
      } else {
        have_delta = true;
      }
    }
    if (!have_delta) return;
    std::vector<const Relation<P>*> delta_cv(delta_rel.begin(),
                                             delta_rel.end());
    SweepCaches();
    IdbInstance<P> candidate(*prog_);
    uint64_t work = 0;
    EvalEdbCrossTerms(delta_cv, snap, *idb, &candidate, &work);
    ++res->rounds;
    IdbInstance<P> delta(*prog_);
    if (DeltaFromCandidate(candidate, *idb, &delta)) {
      IdbInstance<P> t_old(*prog_);
      t_old.CopyContentsFrom(*idb);
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(delta.idb(pred), &idb->idb(pred));
      }
      idb->CompactAll();
      RunMergeRounds(idb, &delta, &t_old, &candidate, max_steps, res, &work);
    }
    res->work += work;
  }

  /// Exact-deletion cascade for count-carrying carriers: snapshot the
  /// deleted predicates, Erase the facts (E_new), then subtract the
  /// removed derivation mass back out of T round by round. The seed is
  /// the same cross-term evaluator as the insert cascade — the removed
  /// mass of one ICO step; each round retracts the previous round's rows
  /// from T (DeletionTraits::Retract — exact) and evaluates the next
  /// cross terms over the (retracted, previous) pair. Terminates when no
  /// mass is left to remove. Any Retract failure — a saturated value has
  /// forgotten its count — aborts with kInexact: the EDB deletes are
  /// already applied and `idb`'s contents are garbage until the caller's
  /// recompute overwrites them (Recompute ignores prior contents).
  CascadeOutcome ExactDeleteCascade(const EdbDelta<P>& batch,
                                    EdbInstance<P>* edb, IdbInstance<P>* idb,
                                    int max_steps, UpdateResult* res) const
    requires SupportsExactDeletion<P>
  {
    const int n = prog_->num_predicates();
    std::vector<std::unique_ptr<Relation<P>>> owned;
    std::vector<const Relation<P>*> snap(n, nullptr);
    std::vector<Relation<P>*> delta_rel(n, nullptr);
    for (const auto& del : batch.pops_deletes) {
      if (delta_rel[del.pred] != nullptr) continue;
      owned.push_back(std::make_unique<Relation<P>>(edb->pops(del.pred)));
      snap[del.pred] = owned.back().get();
      owned.push_back(
          std::make_unique<Relation<P>>(edb->pops(del.pred).arity()));
      delta_rel[del.pred] = owned.back().get();
    }
    bool any_removed = false;
    for (const auto& del : batch.pops_deletes) {
      Relation<P>& rel = edb->pops(del.pred);
      const typename P::Value old_v = rel.Get(del.tuple);
      if (P::Eq(old_v, P::Zero())) continue;  // absent: deleting is a no-op
      delta_rel[del.pred]->Set(del.tuple, old_v);
      rel.Erase(del.tuple);
      any_removed = true;
    }
    if (!any_removed) return CascadeOutcome::kConverged;
    std::vector<const Relation<P>*> delta_cv(delta_rel.begin(),
                                             delta_rel.end());
    SweepCaches();
    IdbInstance<P> candidate(*prog_);
    uint64_t work = 0;
    EvalEdbCrossTerms(delta_cv, snap, *idb, &candidate, &work);
    ++res->rounds;
    IdbInstance<P> removed(*prog_);  // δ⁻ the next round propagates
    IdbInstance<P> t_prev(*prog_);
    const std::vector<EvalUnit> units =
        DifferentialUnits(*idb, removed, t_prev);
    while (true) {
      removed.ClearAll();
      bool any = false;
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& c = candidate.idb(pred);
        const uint32_t rows = c.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!c.RowLive(r)) continue;
          removed.idb(pred).Set(c.View(r), c.ValueAt(r));
          any = true;
        }
      }
      if (!any) {
        res->work += work;
        return CascadeOutcome::kConverged;
      }
      // T_prev ← T, then T ⊖= removed (exact, or bail out).
      t_prev.CopyContentsFrom(*idb);
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& rem = removed.idb(pred);
        Relation<P>& t = idb->idb(pred);
        const uint32_t rows = rem.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!rem.RowLive(r)) continue;
          typename P::Value left;
          if (!DeletionTraits<P>::Retract(t.Get(rem.View(r)), rem.ValueAt(r),
                                          &left)) {
            res->work += work;
            return CascadeOutcome::kInexact;
          }
          t.Set(rem.View(r), left);  // ⊥ tombstones the row
        }
      }
      idb->CompactAll();
      if (res->rounds >= max_steps) {
        res->work += work;
        return CascadeOutcome::kBudget;
      }
      SweepCaches();
      candidate.ClearAll();
      ApplyUnits(units, &candidate, &work);
      ++res->rounds;
    }
  }

  /// DRed for complete distributive dioids, in three phases. (1) AFFECTED
  /// cascade over the pre-mutation instance: a semi-naive fixpoint of the
  /// one-step mass through the deleted facts, carrying the real removed
  /// ⊕-values so selective-⊕ carriers (min/max/or) can drop tuples whose
  /// stored optimum beats every deleted-using derivation. Correctness of
  /// that filter is optimal substructure: subtrees of an optimal
  /// deleted-using tree are optimal deleted-using at their own roots, so
  /// every truly affected tuple — ties included — survives. Non-selective
  /// dioids (PosBool) keep the whole reachable cone (plain support-level
  /// DRed). (2) Prune the cone from T and apply the whole EDB batch.
  /// (3) Re-derive: seed = insert cross terms ⊕ a backward point
  /// re-derivation of every pruned tuple, then ordinary differential
  /// rounds. Unpruned rows need no seed slot — they satisfy
  /// F_new(T_start)(u) ⊑ T_start(u), so their diff is ⊥.
  void DredUpdate(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                  IdbInstance<P>* idb, int max_steps,
                  UpdateResult* res) const
    requires CompleteDistributiveDioid<P>
  {
    const int n = prog_->num_predicates();
    uint64_t work = 0;
    // ---- Phase 1: affected cascade (EDB not yet mutated). ----
    std::vector<std::unique_ptr<Relation<P>>> owned;
    std::vector<const Relation<P>*> no_snap(n, nullptr);
    std::vector<Relation<P>*> del_rel(n, nullptr);
    for (const auto& del : batch.pops_deletes) {
      if (del_rel[del.pred] == nullptr) {
        owned.push_back(
            std::make_unique<Relation<P>>(edb->pops(del.pred).arity()));
        del_rel[del.pred] = owned.back().get();
      }
      const typename P::Value old_v = edb->pops(del.pred).Get(del.tuple);
      if (!P::Eq(old_v, P::Zero())) del_rel[del.pred]->Set(del.tuple, old_v);
    }
    std::vector<const Relation<P>*> del_cv(del_rel.begin(), del_rel.end());
    IdbInstance<P> candidate(*prog_);
    IdbInstance<P> affected(*prog_);   // accumulated affected mass
    IdbInstance<P> aff_delta(*prog_);  // last round's fresh mass
    SweepCaches();
    EvalEdbCrossTerms(del_cv, no_snap, *idb, &candidate, &work);
    ++res->rounds;
    const std::vector<EvalUnit> units =
        DifferentialUnits(*idb, aff_delta, *idb);
    while (true) {
      aff_delta.ClearAll();
      bool any = false;
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& c = candidate.idb(pred);
        const Relation<P>& told = idb->idb(pred);
        const Relation<P>& acc = affected.idb(pred);
        Relation<P>& out = aff_delta.idb(pred);
        const uint32_t rows = c.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!c.RowLive(r)) continue;
          const typename P::Value cv = c.ValueAt(r);
          if constexpr (DeletionTraits<P>::kSelectivePlus) {
            // The stored optimum beats every deleted-using derivation of
            // this tuple: the tuple — and anything reachable through it
            // ALONE — is unaffected.
            if (!P::Eq(P::Plus(cv, told.Get(c.View(r))), cv)) continue;
          }
          const typename P::Value d = P::Minus(cv, acc.Get(c.View(r)));
          if (P::Eq(d, P::Zero())) continue;
          out.Set(c.View(r), d);
          any = true;
        }
      }
      if (!any) break;
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(aff_delta.idb(pred), &affected.idb(pred));
      }
      if (res->rounds >= max_steps) {
        // Budget blew inside the affected cascade: apply the EDB batch so
        // the instance at least reflects it, and report non-convergence
        // (idb is stale, like any non-converged run's partial output).
        for (const auto& del : batch.pops_deletes) {
          edb->pops(del.pred).Erase(del.tuple);
        }
        for (const auto& add : batch.pops_adds) {
          edb->pops(add.pred).Merge(add.tuple, add.value);
        }
        res->converged = false;
        res->work += work;
        return;
      }
      SweepCaches();
      candidate.ClearAll();
      ApplyUnits(units, &candidate, &work);
      ++res->rounds;
    }
    // ---- Phase 2: prune the cone, apply the EDB batch. ----
    std::vector<std::pair<int, Tuple>> pruned;
    for (int pred : prog_->IdbPredicates()) {
      const Relation<P>& a = affected.idb(pred);
      Relation<P>& t = idb->idb(pred);
      const uint32_t rows = a.num_rows();
      for (uint32_t r = 0; r < rows; ++r) {
        if (!a.RowLive(r)) continue;
        if (!t.Erase(a.View(r))) continue;
        Tuple tup(static_cast<std::size_t>(a.arity()), 0);
        for (int p = 0; p < a.arity(); ++p) tup[p] = a.Cell(r, p);
        pruned.emplace_back(pred, std::move(tup));
      }
    }
    idb->CompactAll();
    for (const auto& del : batch.pops_deletes) {
      edb->pops(del.pred).Erase(del.tuple);
    }
    std::vector<const Relation<P>*> add_snap(n, nullptr);
    std::vector<Relation<P>*> add_rel(n, nullptr);
    for (const auto& add : batch.pops_adds) {
      if (add_rel[add.pred] != nullptr) continue;
      // Snapshot AFTER the deletes, BEFORE the adds: the insert seed's
      // later-occurrence slots read the mid-mutation contents.
      owned.push_back(std::make_unique<Relation<P>>(edb->pops(add.pred)));
      add_snap[add.pred] = owned.back().get();
      owned.push_back(
          std::make_unique<Relation<P>>(edb->pops(add.pred).arity()));
      add_rel[add.pred] = owned.back().get();
    }
    bool have_adds = false;
    for (const auto& add : batch.pops_adds) {
      add_rel[add.pred]->Merge(add.tuple, add.value);
      edb->pops(add.pred).Merge(add.tuple, add.value);
      if (!add_rel[add.pred]->empty()) have_adds = true;
    }
    std::vector<const Relation<P>*> add_cv(add_rel.begin(), add_rel.end());
    // ---- Phase 3: re-derive. ----
    SweepCaches();
    candidate.ClearAll();
    if (have_adds) {
      EvalEdbCrossTerms(add_cv, add_snap, *idb, &candidate, &work);
    }
    for (const auto& [pred, tup] : pruned) {
      const typename P::Value v = RederiveTuple(pred, tup, *idb, &work);
      if (!P::Eq(v, P::Zero())) candidate.idb(pred).Merge(tup, v);
    }
    ++res->rounds;
    IdbInstance<P> delta(*prog_);
    if (DeltaFromCandidate(candidate, *idb, &delta)) {
      IdbInstance<P> t_old(*prog_);
      t_old.CopyContentsFrom(*idb);
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(delta.idb(pred), &idb->idb(pred));
      }
      idb->CompactAll();
      RunMergeRounds(idb, &delta, &t_old, &candidate, max_steps, res, &work);
    }
    for (const auto& [pred, tup] : pruned) {
      if (idb->idb(pred).Contains(tup)) ++res->deleted_rederived;
    }
    res->work += work;
  }

  /// Backward point re-derivation: F(T)(tuple) for ONE head tuple — the
  /// DRed re-derive seed for a pruned tuple. The head binding grounds
  /// positions the forward compilation treated as free, so the key sets
  /// differ from the compiled generators': each level re-plans its key
  /// (the currently ground argument positions) against the live binding
  /// and probes through the shared index cache — unpinned, so the
  /// point-query indexes amortize across the pruned set and sweep away
  /// afterwards. ⊕ across derivations is exactly associative/commutative
  /// for every DRed carrier (min/max/or/antichain union), so enumeration
  /// order cannot perturb values.
  typename P::Value RederiveTuple(int head_pred, const Tuple& tuple,
                                  const IdbInstance<P>& idb,
                                  uint64_t* work) const {
    typename P::Value total = P::Zero();
    std::vector<ConstId> binding;
    for (const CompiledRule& cr : compiled_) {
      if (cr.rule->head.pred != head_pred) continue;
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        binding.assign(static_cast<std::size_t>(cr.rule->num_vars),
                       kUnbound);
        for (const auto& [v, c] : cd.prebindings) binding[v] = c;
        bool feasible = true;
        for (std::size_t i = 0; i < cr.rule->head.args.size(); ++i) {
          const Term& t = cr.rule->head.args[i];
          if (!t.IsVar()) {
            if (t.constant != tuple[i]) {
              feasible = false;
              break;
            }
            continue;
          }
          if (binding[t.var] != kUnbound && binding[t.var] != tuple[i]) {
            feasible = false;
            break;
          }
          binding[t.var] = tuple[i];
        }
        if (!feasible) continue;
        total = P::Plus(total,
                        RederiveLevel(cd, 0, &binding, P::One(), idb, work));
      }
    }
    return total;
  }

  /// One generator level of RederiveTuple's backward join (recursive,
  /// depth = generator count). Fully ground levels probe point-wise;
  /// partially bound levels enumerate the cache-served entry list for the
  /// ground positions, binding first occurrences and checking repeats.
  /// Variables this level introduced are re-unbound before returning so
  /// sibling entries (and the caller's next entry) re-plan cleanly.
  typename P::Value RederiveLevel(const CompiledDisjunct& cd, std::size_t g,
                                  std::vector<ConstId>* binding,
                                  const typename P::Value& acc,
                                  const IdbInstance<P>& idb,
                                  uint64_t* work) const {
    if (g == cd.generators.size()) {
      for (const Condition* c : cd.residual) {
        if (!CheckCondition(*c, *binding)) return P::Zero();
      }
      return acc;
    }
    const Generator& gen = cd.generators[g];
    const Atom& atom = gen.is_bool ? cd.sp->conditions[gen.atom_index].atom
                                   : cd.sp->atoms[gen.atom_index];
    std::vector<int> key_pos;
    Tuple key;
    struct FreeOp {
      int pos;
      int var;
      bool bind;  ///< first unbound occurrence within this atom
    };
    std::vector<FreeOp> free_ops;
    for (std::size_t p = 0; p < atom.args.size(); ++p) {
      const Term& t = atom.args[p];
      const ConstId ground = t.IsVar() ? (*binding)[t.var] : t.constant;
      if (ground != kUnbound) {
        key_pos.push_back(static_cast<int>(p));
        key.push_back(ground);
        continue;
      }
      bool seen = false;
      for (const FreeOp& f : free_ops) {
        if (f.bind && f.var == t.var) seen = true;
      }
      free_ops.push_back(FreeOp{static_cast<int>(p), t.var, !seen});
    }
    typename P::Value total = P::Zero();
    auto drain = [&](const auto& rel, const RowIdList& entries,
                     auto&& value_of) {
      for (uint32_t row : entries) {
        ++*work;
        bool matched = true;
        for (const FreeOp& f : free_ops) {
          const ConstId got = rel.Cell(row, f.pos);
          if (f.bind) {
            (*binding)[f.var] = got;
          } else if ((*binding)[f.var] != got) {
            matched = false;
            break;
          }
        }
        if (!matched) continue;
        total = P::Plus(total, RederiveLevel(cd, g + 1, binding,
                                             value_of(row), idb, work));
      }
      for (const FreeOp& f : free_ops) {
        if (f.bind) (*binding)[f.var] = kUnbound;
      }
    };
    if (gen.is_bool) {
      const Relation<BoolS>& rel = edb_->boolean(gen.pred);
      if (free_ops.empty()) {
        ++*work;
        if (!rel.Get(key)) return P::Zero();
        return RederiveLevel(cd, g + 1, binding, acc, idb, work);
      }
      const RelationIndex<BoolS>& idx =
          bool_cache_.Get(rel, key_pos, /*pin=*/false);
      CountProbe(idx.repr(), &hash_probes_, &direct_probes_);
      drain(rel, idx.Lookup(key), [&](uint32_t) { return acc; });
      return total;
    }
    const Relation<P>& rel =
        gen.is_idb ? idb.idb(gen.pred) : edb_->pops(gen.pred);
    if (free_ops.empty()) {
      ++*work;
      const typename P::Value v = rel.Get(key);
      if (P::Eq(v, P::Zero())) return P::Zero();
      return RederiveLevel(cd, g + 1, binding, P::Times(acc, v), idb, work);
    }
    const RelationIndex<P>& idx = pops_cache_.Get(rel, key_pos, /*pin=*/false);
    CountProbe(idx.repr(), &hash_probes_, &direct_probes_);
    drain(rel, idx.Lookup(key),
          [&](uint32_t row) { return P::Times(acc, rel.ValueAt(row)); });
    return total;
  }

  /// Evaluates every unit into its head relation in `out`, counting join
  /// work — the one dispatch every fixpoint loop and Update path uses.
  /// Without a pool, the sequential kernel runs unit by unit in list
  /// order. With one, the step runs in three phases (see the class
  /// comment):
  ///  1. prepare (sequential): resolve every unit's generator indexes —
  ///     all cache/counters traffic, in unit order — and shard each
  ///     unit's driver entry list into row ranges of <= shard_rows.
  ///  2. execute (parallel): every (unit, shard) task joins its driver
  ///     range into a task-private partial relation with a task-private
  ///     work counter; tasks share only immutable prepared state.
  ///  3. reduce (sequential): merge partials into the head relations and
  ///     work into the run counter, in (unit, shard) order — replaying
  ///     the sequential kernel's exact head-merge sequence.
  void ApplyUnits(const std::vector<EvalUnit>& units, IdbInstance<P>* out,
                  uint64_t* work) const {
    if (!pool_) {
      for (const EvalUnit& u : units) {
        EvalDisjunct(*u.cd, u.resolver, &out->idb(u.cr->rule->head.pred),
                     work);
      }
      return;
    }
    if (par_prepared_.size() < units.size()) {
      par_prepared_.resize(units.size());
    }
    struct TaskRef {
      int unit;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<TaskRef> tasks;
    const std::size_t shard_rows =
        options_.shard_rows < 1 ? 1
                                : static_cast<std::size_t>(options_.shard_rows);
    for (std::size_t u = 0; u < units.size(); ++u) {
      PreparedGens& prep = par_prepared_[u];
      PrepareGens(*units[u].cd, units[u].resolver, &prep);
      if (units[u].cd->generators.empty()) {
        // No driver to shard; one task emits the empty-product head.
        tasks.push_back(TaskRef{static_cast<int>(u), 0, 0});
        continue;
      }
      const std::size_t n0 = prep.level0->size();
      for (std::size_t b = 0; b < n0; b += shard_rows) {
        tasks.push_back(
            TaskRef{static_cast<int>(u), b, std::min(n0, b + shard_rows)});
      }
    }
    if (par_states_.size() < tasks.size()) par_states_.resize(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const EvalUnit& un = units[static_cast<std::size_t>(tasks[t].unit)];
      TaskState& st = par_states_[t];
      if (st.sized_for != un.cd) {
        SizeScratch(*un.cr->rule, *un.cd, &st.scratch);
        st.sized_for = un.cd;
      }
      const int head_arity = static_cast<int>(un.cr->rule->head.args.size());
      if (st.partial.arity() != head_arity) {
        st.partial = Relation<P>(head_arity);
      } else {
        st.partial.Clear();
      }
      st.work = 0;
      st.hash_probes = 0;
      st.direct_probes = 0;
    }
    pool_->ParallelFor(tasks.size(), [&](std::size_t t) {
      const TaskRef& tr = tasks[t];
      const EvalUnit& un = units[static_cast<std::size_t>(tr.unit)];
      TaskState& st = par_states_[t];
      ExecuteShard(*un.cd, par_prepared_[static_cast<std::size_t>(tr.unit)],
                   st.scratch, tr.begin, tr.end, &st.partial, &st.work,
                   &st.hash_probes, &st.direct_probes);
    });
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const EvalUnit& un = units[static_cast<std::size_t>(tasks[t].unit)];
      out->idb(un.cr->rule->head.pred)
          .MergeFrom(std::move(par_states_[t].partial));
      *work += par_states_[t].work;
      hash_probes_ += par_states_[t].hash_probes;
      direct_probes_ += par_states_[t].direct_probes;
    }
  }

  ConstId GroundTerm(const Term& t,
                     const std::vector<ConstId>& binding) const {
    if (!t.IsVar()) return t.constant;
    return binding[t.var];
  }

  bool CheckCondition(const Condition& c,
                      const std::vector<ConstId>& binding) const {
    switch (c.kind) {
      case Condition::Kind::kBoolAtom:
      case Condition::Kind::kNegBoolAtom: {
        Tuple t;
        t.reserve(c.atom.args.size());
        for (const Term& term : c.atom.args) {
          ConstId id = GroundTerm(term, binding);
          DLO_CHECK(id != kUnbound);
          t.push_back(id);
        }
        bool holds = edb_->boolean(c.atom.pred).Get(t);
        return c.kind == Condition::Kind::kBoolAtom ? holds : !holds;
      }
      case Condition::Kind::kCompare: {
        ConstId l = GroundTerm(c.lhs, binding);
        ConstId r = GroundTerm(c.rhs, binding);
        DLO_CHECK(l != kUnbound && r != kUnbound);
        return EvalCompare(c.op, l, r, *prog_->domain());
      }
    }
    return false;
  }

  /// Compile-time truth value of a compare condition under the
  /// disjunct's prebindings, or nullopt when a side is unbound at
  /// compile time.
  std::optional<bool> DecideGroundCompare(const Condition& c,
                                          const std::vector<ConstId>& pre)
      const {
    auto ground = [&](const Term& t) -> ConstId {
      if (!t.IsVar()) return t.constant;
      return pre[t.var];
    };
    const ConstId l = ground(c.lhs);
    const ConstId r = ground(c.rhs);
    if (l == kUnbound || r == kUnbound) return std::nullopt;
    return EvalCompare(c.op, l, r, *prog_->domain());
  }

  /// Sizes a Scratch's buffers for one disjunct (idempotent; reuses
  /// capacity when a task slot is re-pointed at the same shape).
  void SizeScratch(const Rule& rule, const CompiledDisjunct& cd,
                   Scratch* sc) const {
    sc->binding.assign(static_cast<std::size_t>(rule.num_vars), kUnbound);
    sc->acc.assign(cd.generators.size() + 1, P::One());
    sc->keys.clear();
    sc->keys.reserve(cd.generators.size());
    for (const Generator& g : cd.generators) {
      sc->keys.emplace_back(g.key_positions.size(), 0);
    }
    sc->head = Tuple(rule.head.args.size(), 0);
    sc->entries.assign(cd.generators.size(), nullptr);
    sc->next.assign(cd.generators.size(), 0);
  }

  /// Residual checks + zero filter + head construction for one complete
  /// join binding; merges the result into `out`. Uses the task's
  /// preallocated head buffer — no allocation on this path.
  void EmitHead(const CompiledDisjunct& cd, Scratch& sc,
                const typename P::Value& acc, Relation<P>* out) const {
    for (const Condition* c : cd.residual) {
      if (!CheckCondition(*c, sc.binding)) return;
    }
    if (P::Eq(acc, P::Zero())) return;
    for (std::size_t i = 0; i < cd.head_sources.size(); ++i) {
      const ValueSource& s = cd.head_sources[i];
      sc.head[i] = s.var >= 0 ? sc.binding[s.var] : s.constant;
    }
    out->Merge(sc.head, acc);
  }

  /// Evaluates one sum-product under `resolver` (mapping IDB atom indexes
  /// to the relation instance to read), merging results into `out` — the
  /// sequential kernel: prepare, then execute the whole driver range with
  /// the disjunct's own scratch slot.
  template <typename Resolver>
  void EvalDisjunct(const CompiledDisjunct& cd, Resolver&& resolver,
                    Relation<P>* out, uint64_t* work) const {
    PreparedGens& prep = prepared_[static_cast<std::size_t>(cd.scratch_id)];
    PrepareGens(cd, resolver, &prep);
    ExecuteShard(cd, prep, scratch_[static_cast<std::size_t>(cd.scratch_id)],
                 0, static_cast<std::size_t>(-1), out, work, &hash_probes_,
                 &direct_probes_);
  }

  /// Prepare phase of one disjunct evaluation: resolves every generator's
  /// relation and index (through the cache — the only place build/hit
  /// counters move) and looks up
  /// the driver entry list (level 0's key depends only on prebindings).
  /// Sequential by construction: callers never overlap PrepareGens with
  /// the parallel execute phase.
  template <typename Resolver>
  void PrepareGens(const CompiledDisjunct& cd, Resolver&& resolver,
                   PreparedGens* prep) const {
    const std::size_t levels = cd.generators.size();
    prep->pops_idx.assign(levels, nullptr);
    prep->bool_idx.assign(levels, nullptr);
    prep->pops_rel.assign(levels, nullptr);
    prep->bool_rel.assign(levels, nullptr);
    prep->repr.assign(levels, IndexRepr::kHashMap);
    prep->level0 = nullptr;
    for (std::size_t g = 0; g < levels; ++g) {
      const Generator& gen = cd.generators[g];
      if (gen.is_bool) {
        const Relation<BoolS>& rel = edb_->boolean(gen.pred);
        // Boolean condition atoms always read the EDB: pin the entry
        // (never evicted, never re-scanned) and attribute its scan.
        const uint64_t scans = bool_cache_.scan_rows();
        prep->bool_idx[g] =
            &bool_cache_.Get(rel, gen.key_positions, /*pin=*/true);
        edb_index_scan_rows_ += bool_cache_.scan_rows() - scans;
        prep->bool_rel[g] = &rel;
        prep->repr[g] = prep->bool_idx[g]->repr();
      } else {
        // ALL POPS atoms resolve through the resolver: the standard
        // resolvers return the live EDB relation for non-IDB atoms, while
        // Engine::Update's seed resolvers substitute snapshot/delta
        // relations for changed EDB predicates. Pinning and the EDB-scan
        // counter apply only to the live EDB relation itself — substitute
        // relations are transient, so their cache entries must stay
        // evictable and must not disturb the EDB-scan invariant.
        const Relation<P>& rel = resolver(gen.atom_index);
        const bool base_edb = !gen.is_idb && &rel == &edb_->pops(gen.pred);
        const uint64_t before = pops_cache_.builds();
        const uint64_t scans = pops_cache_.scan_rows();
        prep->pops_idx[g] =
            &pops_cache_.Get(rel, gen.key_positions, /*pin=*/base_edb);
        if (!base_edb) {
          if (pops_cache_.builds() != before) {
            ++idb_index_builds_;
          } else {
            ++idb_index_hits_;
          }
        } else {
          edb_index_scan_rows_ += pops_cache_.scan_rows() - scans;
        }
        prep->pops_rel[g] = &rel;
        prep->repr[g] = prep->pops_idx[g]->repr();
      }
    }
    if (levels == 0) return;
    // The driver entry list: level 0's key sources are constants or
    // prebound variables (nothing else is bound before the first
    // generator), so the lookup is independent of join state.
    const Generator& g0 = cd.generators[0];
    Tuple key(g0.key_positions.size(), 0);
    for (std::size_t i = 0; i < g0.key_sources.size(); ++i) {
      const ValueSource& s = g0.key_sources[i];
      if (s.var < 0) {
        key[i] = s.constant;
        continue;
      }
      ConstId c = kUnbound;
      for (const auto& [v, pc] : cd.prebindings) {
        if (v == s.var) c = pc;
      }
      DLO_CHECK(c != kUnbound);
      key[i] = c;
    }
    CountProbe(prep->repr[0], &hash_probes_, &direct_probes_);
    prep->level0 = g0.is_bool ? &prep->bool_idx[0]->Lookup(key)
                              : &prep->pops_idx[0]->Lookup(key);
  }

  /// Classifies one index Lookup into the probe counters. The execute
  /// phase passes task-private counters (reduced in fixed order); the
  /// sequential prepare phase passes the engine members directly.
  static void CountProbe(IndexRepr repr, uint64_t* hash_probes,
                         uint64_t* direct_probes) {
    if (repr == IndexRepr::kHashMap) {
      ++*hash_probes;
    } else if (repr == IndexRepr::kDirectArray) {
      ++*direct_probes;
    }  // kAllRows: no key is consulted at all.
  }

  /// Execute phase: joins driver entries [begin, end) of a prepared
  /// disjunct into `out`, counting visited entries into `work`. Runs the
  /// compiled flat join program with an explicit iterative loop over
  /// generator levels: per level, the key buffer is filled from
  /// precomputed sources, looked up in the prepared index, and each entry
  /// runs its bind/check ops — no recursion, no per-entry allocation, no
  /// Term re-inspection. Unbinding on backtrack is unnecessary: which
  /// variables are bound at each level is static, so stale slots are
  /// always overwritten before being read.
  ///
  /// Const-path safety: reads only immutable prepared/compiled state and
  /// the (unchanging) input relations; writes only `sc`, `out` and the
  /// task counters, which belong exclusively to the calling task — so
  /// shards execute concurrently without synchronization.
  void ExecuteShard(const CompiledDisjunct& cd, const PreparedGens& prep,
                    Scratch& sc, std::size_t begin, std::size_t end,
                    Relation<P>* out, uint64_t* work, uint64_t* hash_probes,
                    uint64_t* direct_probes) const {
    for (const auto& [v, c] : cd.prebindings) sc.binding[v] = c;

    const std::size_t levels = cd.generators.size();
    if (levels == 0) {
      EmitHead(cd, sc, P::One(), out);
      return;
    }
    const RowIdList& driver = *prep.level0;
    if (end > driver.size()) end = driver.size();
    if (begin >= end) return;
    sc.entries[0] = &driver;
    sc.next[0] = begin;

    // Fills level `lvl`'s key buffer from the current binding and points
    // its cursor at the matching entry list (levels >= 1 only; level 0's
    // list is the prepared driver).
    auto enter_level = [&](std::size_t lvl) {
      const Generator& gen = cd.generators[lvl];
      Tuple& key = sc.keys[lvl];
      for (std::size_t i = 0; i < gen.key_sources.size(); ++i) {
        const ValueSource& s = gen.key_sources[i];
        key[i] = s.var >= 0 ? sc.binding[s.var] : s.constant;
      }
      CountProbe(prep.repr[lvl], hash_probes, direct_probes);
      if (gen.is_bool) {
        sc.entries[lvl] = &prep.bool_idx[lvl]->Lookup(key);
      } else {
        sc.entries[lvl] = &prep.pops_idx[lvl]->Lookup(key);
      }
      sc.next[lvl] = 0;
    };

    // Drains entries [from, to) of the innermost level when it is a
    // check-free POPS atom (cd.drain_innermost): every entry matches and
    // emits, so one loop replaces a pass of the level state machine per
    // row. Rows are visited and heads merged in entry-list order, one
    // `work` unit per row — the same trace as the general loop.
    auto drain = [&](std::size_t lvl, std::size_t from, std::size_t to) {
      const Generator& gen = cd.generators[lvl];
      const Relation<P>& rel = *prep.pops_rel[lvl];
      const RowIdList& entries = *sc.entries[lvl];
      const typename P::Value acc = sc.acc[lvl];
      *work += to - from;
      if (gen.entry_ops.size() == 1) {
        // The dominant shape (e.g. TC's E(Z,Y) level): one bound column,
        // hoisted to a raw span outside the loop.
        const ConstId* col = rel.column_data(gen.entry_ops[0].pos);
        const int var = gen.entry_ops[0].var;
        for (std::size_t i = from; i < to; ++i) {
          const uint32_t row = entries[i];
          sc.binding[var] = col[row];
          EmitHead(cd, sc, P::Times(acc, rel.ValueAt(row)), out);
        }
        return;
      }
      for (std::size_t i = from; i < to; ++i) {
        const uint32_t row = entries[i];
        for (const EntryOp& op : gen.entry_ops) {
          sc.binding[op.var] = rel.Cell(row, op.pos);
        }
        EmitHead(cd, sc, P::Times(acc, rel.ValueAt(row)), out);
      }
    };

    sc.acc[0] = P::One();
    std::size_t g = 0;
    for (;;) {
      const Generator& gen = cd.generators[g];
      const RowIdList& entries = *sc.entries[g];
      const std::size_t limit = g == 0 ? end : entries.size();
      if (g + 1 == levels && cd.drain_innermost) {
        drain(g, sc.next[g], limit);
        sc.next[g] = limit;
      }
      if (sc.next[g] == limit) {
        if (g == 0) break;
        --g;
        continue;
      }
      const uint32_t row = entries[sc.next[g]];
      ++sc.next[g];
      ++*work;
      // Bind/check against the matched row's cells, read straight out of
      // the relation's columns (no tuple is materialized).
      auto run_entry_ops = [&](const auto& rel) {
        for (const EntryOp& op : gen.entry_ops) {
          ConstId got = rel.Cell(row, op.pos);
          if (op.kind == EntryOp::Kind::kBind) {
            sc.binding[op.var] = got;
          } else if (sc.binding[op.var] != got) {
            return false;
          }
        }
        return true;
      };
      bool matched;
      const typename P::Value* value = nullptr;
      if (gen.is_bool) {
        matched = run_entry_ops(*prep.bool_rel[g]);
      } else {
        const Relation<P>& rel = *prep.pops_rel[g];
        matched = run_entry_ops(rel);
        value = &rel.ValueAt(row);
      }
      if (!matched) continue;
      sc.acc[g + 1] = value ? P::Times(sc.acc[g], *value) : sc.acc[g];
      if (g + 1 == levels) {
        EmitHead(cd, sc, sc.acc[levels], out);
      } else {
        ++g;
        enter_level(g);
      }
    }
  }

  const Program* prog_;
  const EdbInstance<P>* edb_;
  EngineOptions options_;
  std::vector<CompiledRule> compiled_;
  std::vector<int> all_rules_;  ///< 0 .. compiled_.size() - 1
  std::unique_ptr<ThreadPool> pool_;  ///< null when num_threads <= 1
  // Mutable: evaluation entry points are const, but memoizing indexes,
  // counting builds, and reusing evaluation buffers are all invisible to
  // callers. Every one of these members is touched only in the
  // sequential prepare/reduce phases (never during the fanned-out
  // execute phase), which is what makes internal parallelism safe — and
  // also why one Engine object is still not shareable across *caller*
  // threads (see the class comment).
  mutable std::vector<Scratch> scratch_;  ///< one per compiled disjunct
  mutable std::vector<PreparedGens> prepared_;  ///< one per disjunct
  mutable std::vector<PreparedGens> par_prepared_;  ///< one per eval unit
  mutable std::vector<TaskState> par_states_;  ///< one per (unit, shard)
  mutable IndexCache<P> pops_cache_;
  mutable IndexCache<BoolS> bool_cache_;
  mutable uint64_t idb_index_builds_ = 0;  ///< cache builds for IDB inputs
  mutable uint64_t idb_index_hits_ = 0;    ///< cache hits for IDB inputs
  mutable uint64_t hash_probes_ = 0;    ///< hash-map index lookups
  mutable uint64_t direct_probes_ = 0;  ///< direct-array index lookups
  mutable uint64_t edb_index_scan_rows_ = 0;  ///< EDB build-scan rows
};

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_ENGINE_H_
