// EDB and IDB instances: per-predicate K-relations for one program.
#ifndef DATALOGO_DATALOG_INSTANCE_H_
#define DATALOGO_DATALOG_INSTANCE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/datalog/ast.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"

namespace datalogo {

/// One batch of EDB mutations for Engine::Update: POPS fact insertions
/// (⊕-merged into the stored value, like repeated LoadTsv lines) and
/// deletions (the whole fact leaves the support), plus Boolean-EDB
/// insertions/deletions. Within one Update, deletes are applied before
/// adds — a fact both deleted and re-added ends up present with exactly
/// the added value.
template <Pops P>
struct EdbDelta {
  struct PopsAdd {
    int pred;
    Tuple tuple;
    typename P::Value value;
  };
  struct FactRef {
    int pred;
    Tuple tuple;
  };
  std::vector<PopsAdd> pops_adds;
  std::vector<FactRef> pops_deletes;
  std::vector<FactRef> bool_adds;
  std::vector<FactRef> bool_deletes;

  bool empty() const {
    return pops_adds.empty() && pops_deletes.empty() && bool_adds.empty() &&
           bool_deletes.empty();
  }

  void Add(int pred, Tuple t, typename P::Value v) {
    pops_adds.push_back(PopsAdd{pred, std::move(t), std::move(v)});
  }
  void Delete(int pred, Tuple t) {
    pops_deletes.push_back(FactRef{pred, std::move(t)});
  }
  void AddBool(int pred, Tuple t) {
    bool_adds.push_back(FactRef{pred, std::move(t)});
  }
  void DeleteBool(int pred, Tuple t) {
    bool_deletes.push_back(FactRef{pred, std::move(t)});
  }
};

/// Input instance (I, I_B): POPS relations for σ, Boolean relations for σ_B.
///
/// Concurrency: neither instance class has mutable members, so the const
/// accessors are plain reads — any number of threads may read an instance
/// concurrently as long as no thread mutates it. The engine's parallel
/// ICO step relies on exactly this: input instances are frozen for the
/// duration of one application while worker tasks probe them through
/// RowView/RelationIndex, and all mutation (merge of partials, content
/// moves) happens in its sequential phases.
template <Pops P>
class EdbInstance {
 public:
  explicit EdbInstance(const Program& prog) : prog_(&prog) {
    pops_.reserve(prog.num_predicates());
    bools_.reserve(prog.num_predicates());
    for (int i = 0; i < prog.num_predicates(); ++i) {
      pops_.emplace_back(prog.predicate(i).arity);
      bools_.emplace_back(prog.predicate(i).arity);
    }
  }

  const Program& program() const { return *prog_; }

  Relation<P>& pops(int pred) {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kEdb);
    return pops_[pred];
  }
  const Relation<P>& pops(int pred) const {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kEdb);
    return pops_[pred];
  }

  Relation<BoolS>& boolean(int pred) {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kBoolEdb);
    return bools_[pred];
  }
  const Relation<BoolS>& boolean(int pred) const {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kBoolEdb);
    return bools_[pred];
  }

  /// Active domain: all constants in EDB supports plus program constants.
  std::vector<ConstId> ActiveDomain() const {
    std::vector<ConstId> out;
    for (int i = 0; i < prog_->num_predicates(); ++i) {
      PredKind k = prog_->predicate(i).kind;
      if (k == PredKind::kEdb) pops_[i].CollectConstants(out);
      if (k == PredKind::kBoolEdb) bools_[i].CollectConstants(out);
    }
    for (const Rule& rule : prog_->rules()) {
      auto add_atom = [&](const Atom& a) {
        for (const Term& t : a.args) {
          if (!t.IsVar()) out.push_back(t.constant);
        }
      };
      add_atom(rule.head);
      for (const SumProduct& sp : rule.disjuncts) {
        for (const Atom& a : sp.atoms) add_atom(a);
        for (const Condition& c : sp.conditions) {
          if (c.kind == Condition::Kind::kCompare) {
            if (!c.lhs.IsVar()) out.push_back(c.lhs.constant);
            if (!c.rhs.IsVar()) out.push_back(c.rhs.constant);
          } else {
            add_atom(c.atom);
          }
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  const Program* prog_;
  std::vector<Relation<P>> pops_;
  std::vector<Relation<BoolS>> bools_;
};

/// Output instance J: one POPS relation per IDB predicate.
template <Pops P>
class IdbInstance {
 public:
  explicit IdbInstance(const Program& prog) : prog_(&prog) {
    rels_.reserve(prog.num_predicates());
    for (int i = 0; i < prog.num_predicates(); ++i) {
      rels_.emplace_back(prog.predicate(i).arity);
    }
  }

  Relation<P>& idb(int pred) {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kIdb);
    return rels_[pred];
  }
  const Relation<P>& idb(int pred) const {
    DLO_CHECK(prog_->predicate(pred).kind == PredKind::kIdb);
    return rels_[pred];
  }

  bool Equals(const IdbInstance& other) const {
    for (int pred : prog_->IdbPredicates()) {
      if (!rels_[pred].Equals(other.rels_[pred])) return false;
    }
    return true;
  }

  /// Clears every IDB relation in place. Column and slot capacity — and
  /// the Relation uids the index cache is keyed by — are retained, so a
  /// Clear + refill cycle reuses storage instead of churning objects.
  /// Clear is also a *soft* mutation in the relation's hard/clear-version
  /// model: cached indexes of a cleared-then-refilled relation are
  /// refreshed by reset-and-reappend (no per-row hash-map teardown, no
  /// tier re-detection) rather than rebuilt — which is why the engine
  /// routes every per-round delta through Clear + Set/Merge instead of
  /// whole-object moves.
  void ClearAll() {
    for (int pred : prog_->IdbPredicates()) rels_[pred].Clear();
  }

  /// Compacts tombstoned rows out of every IDB relation. Per relation a
  /// no-op (version and cached indexes untouched) when it has none.
  void CompactAll() {
    for (int pred : prog_->IdbPredicates()) rels_[pred].Compact();
  }

  /// Element-wise copy assignment into this instance's existing Relation
  /// objects: unlike `*this = other`, the objects (and their uids) stay
  /// alive, so index-cache entries keyed by them remain attached.
  void CopyContentsFrom(const IdbInstance& other) {
    DLO_CHECK(rels_.size() == other.rels_.size());
    for (int pred : prog_->IdbPredicates()) rels_[pred] = other.rels_[pred];
  }

  /// Element-wise move assignment with the same uid-stability guarantee;
  /// `other`'s relations are left empty (and usable). Note this is a
  /// *hard* mutation on both sides (row ids mean something new), so any
  /// cached index of either relation fully rebuilds on next use — prefer
  /// Clear + refill (see ClearAll) for relations that are re-indexed
  /// every round.
  void TakeContentsFrom(IdbInstance* other) {
    DLO_CHECK(rels_.size() == other->rels_.size());
    for (int pred : prog_->IdbPredicates()) {
      rels_[pred] = std::move(other->rels_[pred]);
    }
  }

  /// Total support size across IDB relations.
  std::size_t TotalSupport() const {
    std::size_t n = 0;
    for (int pred : prog_->IdbPredicates()) n += rels_[pred].support_size();
    return n;
  }

 private:
  const Program* prog_;
  std::vector<Relation<P>> rels_;
};

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_INSTANCE_H_
