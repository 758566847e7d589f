// Abstract syntax of datalog° (Sec. 4): programs of conditional
// sum-sum-product rules (Definitions 2.5 and 2.7) over a vocabulary of
// POPS EDBs (σ), Boolean EDBs (σ_B) and IDBs (τ).
//
// The condition language Φ implemented here is the fragment every example
// in the paper uses: conjunctions of (possibly negated) Boolean-EDB atoms
// and key comparisons. Indicator functions [C] (Sec. 4.4) desugar into
// conditions at parse time; `!R(..)` in a product applies the POPS's `Not`
// (Sec. 7, THREE/FOUR).
#ifndef DATALOGO_DATALOG_AST_H_
#define DATALOGO_DATALOG_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/relation/domain.h"

namespace datalogo {

/// Role of a predicate in the program vocabulary.
enum class PredKind {
  kEdb,      ///< POPS-valued input relation (σ)
  kBoolEdb,  ///< Boolean input relation (σ_B), usable in conditions
  kIdb,      ///< computed relation (τ)
};

/// A predicate declaration.
struct Predicate {
  std::string name;
  int arity = 0;
  PredKind kind = PredKind::kEdb;
};

/// A key term: rule variable or interned constant.
struct Term {
  enum class Kind { kVar, kConst } kind = Kind::kVar;
  int var = -1;           ///< valid when kind == kVar (rule-local index)
  ConstId constant = 0;   ///< valid when kind == kConst

  static Term Var(int v) { return Term{Kind::kVar, v, 0}; }
  static Term Const(ConstId c) { return Term{Kind::kConst, -1, c}; }
  bool IsVar() const { return kind == Kind::kVar; }
};

/// A (POPS or Boolean) atom R(t₁, …, t_k). `negated` applies the POPS's
/// Not function to the atom's value (THREE/FOUR/B only).
struct Atom {
  int pred = -1;
  std::vector<Term> args;
  bool negated = false;
};

/// Comparison operators usable in conditions.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// One conjunct of the condition Φ.
struct Condition {
  enum class Kind {
    kBoolAtom,     ///< B(t…) must hold
    kNegBoolAtom,  ///< ¬B(t…) must hold
    /// t₁ op t₂ on keys. = and != compare constants; <, <=, > and >=
    /// compare integer values and are false when either side is not an
    /// integer constant (e.g. a symbol key) — see EvalCompare.
    kCompare,
  } kind = Kind::kBoolAtom;
  Atom atom;            ///< for (Neg)BoolAtom
  CmpOp op = CmpOp::kEq;
  Term lhs, rhs;        ///< for Compare
};

/// Truth value of the ground comparison `l op r`, the one evaluator every
/// engine shares. kEq/kNe compare constant ids; the order operators
/// compare the constants' integer values and are false when either side
/// is not an integer constant.
inline bool EvalCompare(CmpOp op, ConstId l, ConstId r, const Domain& dom) {
  if (op == CmpOp::kEq) return l == r;
  if (op == CmpOp::kNe) return l != r;
  const std::optional<int64_t> li = dom.AsInt(l);
  const std::optional<int64_t> ri = dom.AsInt(r);
  if (!li.has_value() || !ri.has_value()) return false;
  switch (op) {
    case CmpOp::kLt:
      return *li < *ri;
    case CmpOp::kLe:
      return *li <= *ri;
    case CmpOp::kGt:
      return *li > *ri;
    case CmpOp::kGe:
      return *li >= *ri;
    default:
      return false;
  }
}

/// One sum-product { R₁(X₁) ⊗ … ⊗ R_m(X_m) | Φ } (Def. 2.5). The bound
/// variables (those not in the head) are ⊕-aggregated over.
struct SumProduct {
  std::vector<Atom> atoms;            ///< may be empty (pure indicator)
  std::vector<Condition> conditions;  ///< the conjuncts of Φ
};

/// A rule T(X…) :- E₁ ⊕ … ⊕ E_q (Def. 2.7).
struct Rule {
  Atom head;
  std::vector<SumProduct> disjuncts;
  int num_vars = 0;                     ///< rule-local variable count
  std::vector<std::string> var_names;   ///< index → source name
};

/// A datalog° program: vocabulary + rules. The same Program object can be
/// evaluated over any POPS; the values live in the EDB instances.
class Program {
 public:
  explicit Program(Domain* domain) : domain_(domain) {}

  Domain* domain() const { return domain_; }

  /// Declares (or finds) a predicate; re-declaration with conflicting
  /// arity/kind is a caller bug (checked). `auto_declared` marks
  /// predicates invented by the parser from usage (their kind is a guess
  /// and may be upgraded, see UpgradeToIdb).
  int AddPredicate(const std::string& name, int arity, PredKind kind,
                   bool auto_declared = false);

  /// Upgrades an auto-declared POPS EDB to an IDB — used when a predicate
  /// first seen in a rule body later appears as a rule head (mutual
  /// recursion written top-down).
  void UpgradeToIdb(int pred);

  /// Finds a predicate id by name (-1 if absent).
  int FindPredicate(const std::string& name) const;

  const Predicate& predicate(int id) const;
  int num_predicates() const { return static_cast<int>(preds_.size()); }

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& mutable_rules() { return rules_; }

  /// All IDB predicate ids, in declaration order.
  std::vector<int> IdbPredicates() const;

  /// True if every rule body has ≤ 1 IDB occurrence per sum-product
  /// (the paper's "linear program", Sec. 4).
  bool IsLinear() const;

  /// Pretty-prints the program in the parser's syntax.
  std::string ToString() const;

 private:
  Domain* domain_;
  std::vector<Predicate> preds_;
  std::vector<bool> auto_declared_;
  std::vector<Rule> rules_;
};

/// Renders one rule in the parser's concrete syntax.
std::string RuleToString(const Program& prog, const Rule& rule);

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_AST_H_
