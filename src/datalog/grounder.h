// Grounding (Sec. 4.3): instantiates a datalog° program over the active
// domain into a vector-valued polynomial system — one POPS variable per
// IDB ground atom, one provenance-polynomial (Sec. 2.4) per variable. The
// grounded view is sound for EVERY POPS (including non-absorptive ones
// like R⊥ and THREE) and is the object the convergence theorems analyze.
#ifndef DATALOGO_DATALOG_GROUNDER_H_
#define DATALOGO_DATALOG_GROUNDER_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/datalog/ast.h"
#include "src/datalog/instance.h"
#include "src/poly/poly_system.h"
#include "src/relation/tuple.h"

namespace datalogo {

/// A grounded datalog° program: the polynomial system plus the ground-atom
/// ↔ variable correspondence.
template <Pops P>
class GroundedProgram {
 public:
  GroundedProgram(const Program& prog, PolySystem<P> system,
                  std::vector<std::pair<int, Tuple>> atom_of_var,
                  std::unordered_map<Tuple, int, TupleHash> var_lookup)
      : prog_(&prog),
        system_(std::move(system)),
        atom_of_var_(std::move(atom_of_var)),
        var_lookup_(std::move(var_lookup)) {}

  const PolySystem<P>& system() const { return system_; }
  int num_vars() const { return system_.num_vars(); }

  /// The (pred, tuple) of a grounded variable.
  const std::pair<int, Tuple>& AtomOf(int var) const {
    DLO_CHECK(var >= 0 && var < num_vars());
    return atom_of_var_[var];
  }

  /// Variable index of an IDB ground atom, or -1 if outside the grounding.
  int VarOf(int pred, const Tuple& t) const {
    Tuple key;
    key.reserve(t.size() + 1);
    key.push_back(static_cast<ConstId>(pred));
    key.append(t.begin(), t.end());
    auto it = var_lookup_.find(key);
    return it == var_lookup_.end() ? -1 : it->second;
  }

  /// Runs Algorithm 1 on the grounded system.
  PolyIterationResult<P> NaiveIterate(int max_steps) const {
    return system_.NaiveIterate(max_steps);
  }

  /// Decodes a value vector into an IDB instance (support = non-⊥).
  IdbInstance<P> Decode(const std::vector<typename P::Value>& x) const {
    IdbInstance<P> out(*prog_);
    DLO_CHECK(static_cast<int>(x.size()) == num_vars());
    for (int v = 0; v < num_vars(); ++v) {
      const auto& [pred, tuple] = atom_of_var_[v];
      out.idb(pred).Set(tuple, x[v]);
    }
    return out;
  }

 private:
  const Program* prog_;
  PolySystem<P> system_;
  std::vector<std::pair<int, Tuple>> atom_of_var_;
  std::unordered_map<Tuple, int, TupleHash> var_lookup_;
};

/// Grounds `prog` against the EDB instance over its active domain.
///
/// For each rule and each valuation θ of the rule variables into ADom that
/// satisfies the conditions Φ, emits the monomial θ(body) (Eq. 12) into
/// the provenance polynomial of the head ground atom (Eq. 13): POPS-EDB
/// atom values multiply into the coefficient, IDB atoms become variable
/// factors (negated ones become Not-factors). Over a semiring, monomials
/// whose coefficient is 0 are dropped (absorption makes them inert); over
/// a general POPS they are kept, preserving ⊥-propagation.
template <Pops P>
GroundedProgram<P> GroundProgram(const Program& prog,
                                 const EdbInstance<P>& edb) {
  std::vector<ConstId> adom = edb.ActiveDomain();

  // Enumerate IDB ground atoms: one variable per tuple in ADom^arity.
  std::vector<std::pair<int, Tuple>> atom_of_var;
  std::unordered_map<Tuple, int, TupleHash> var_lookup;
  for (int pred : prog.IdbPredicates()) {
    int arity = prog.predicate(pred).arity;
    Tuple t(arity, 0);
    std::function<void(int)> enumerate = [&](int pos) {
      if (pos == arity) {
        Tuple key;
        key.reserve(arity + 1);
        key.push_back(static_cast<ConstId>(pred));
        key.append(t.begin(), t.end());
        var_lookup.emplace(key, static_cast<int>(atom_of_var.size()));
        atom_of_var.emplace_back(pred, t);
        return;
      }
      for (ConstId c : adom) {
        t[pos] = c;
        enumerate(pos + 1);
      }
    };
    enumerate(0);
  }

  PolySystem<P> system(static_cast<int>(atom_of_var.size()));

  auto var_of = [&](int pred, const Tuple& t) {
    Tuple key;
    key.reserve(t.size() + 1);
    key.push_back(static_cast<ConstId>(pred));
    key.append(t.begin(), t.end());
    auto it = var_lookup.find(key);
    DLO_CHECK(it != var_lookup.end());
    return it->second;
  };

  constexpr ConstId kUnbound = static_cast<ConstId>(-1);

  for (const Rule& rule : prog.rules()) {
    for (const SumProduct& sp : rule.disjuncts) {
      std::vector<ConstId> binding(rule.num_vars, kUnbound);

      // Only the variables of THIS sum-product (plus the head variables)
      // are quantified (Def. 2.5); enumerating unused rule variables would
      // add spurious duplicate monomials (the domain-dependence pitfall of
      // Sec. 2.4).
      std::vector<bool> used(rule.num_vars, false);
      auto mark = [&](const Term& t) {
        if (t.IsVar()) used[t.var] = true;
      };
      for (const Term& t : rule.head.args) mark(t);
      for (const Atom& a : sp.atoms) {
        for (const Term& t : a.args) mark(t);
      }
      for (const Condition& c : sp.conditions) {
        if (c.kind == Condition::Kind::kCompare) {
          mark(c.lhs);
          mark(c.rhs);
        } else {
          for (const Term& t : c.atom.args) mark(t);
        }
      }
      std::vector<int> quantified;
      for (int v = 0; v < rule.num_vars; ++v) {
        if (used[v]) quantified.push_back(v);
      }

      auto ground_term = [&](const Term& t) -> ConstId {
        return t.IsVar() ? binding[t.var] : t.constant;
      };
      auto condition_ready = [&](const Condition& c) {
        auto term_ready = [&](const Term& t) {
          return !t.IsVar() || binding[t.var] != kUnbound;
        };
        if (c.kind == Condition::Kind::kCompare) {
          return term_ready(c.lhs) && term_ready(c.rhs);
        }
        for (const Term& t : c.atom.args) {
          if (!term_ready(t)) return false;
        }
        return true;
      };
      auto check_condition = [&](const Condition& c) {
        switch (c.kind) {
          case Condition::Kind::kBoolAtom:
          case Condition::Kind::kNegBoolAtom: {
            Tuple t;
            for (const Term& term : c.atom.args) {
              t.push_back(ground_term(term));
            }
            bool holds = edb.boolean(c.atom.pred).Get(t);
            return c.kind == Condition::Kind::kBoolAtom ? holds : !holds;
          }
          case Condition::Kind::kCompare:
            return EvalCompare(c.op, ground_term(c.lhs), ground_term(c.rhs),
                               *prog.domain());
        }
        return false;
      };

      // Checked[i]: condition i already verified during enumeration.
      std::vector<bool> checked(sp.conditions.size(), false);

      std::function<void(std::size_t)> enumerate = [&](std::size_t qi) {
        // Check any condition that just became ready (prunes early).
        std::vector<int> newly;
        for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
          if (!checked[i] && condition_ready(sp.conditions[i])) {
            if (!check_condition(sp.conditions[i])) {
              for (int k : newly) checked[k] = false;
              return;
            }
            checked[i] = true;
            newly.push_back(static_cast<int>(i));
          }
        }
        if (qi == quantified.size()) {
          // Build the monomial θ(body).
          Monomial<P> m;
          m.coeff = P::One();
          bool drop = false;
          for (const Atom& a : sp.atoms) {
            Tuple t;
            t.reserve(a.args.size());
            for (const Term& term : a.args) t.push_back(ground_term(term));
            if (prog.predicate(a.pred).kind == PredKind::kIdb) {
              int var = var_of(a.pred, t);
              if (a.negated) {
                m.negations.push_back(var);
              } else {
                m.powers.emplace_back(var, 1);
              }
            } else {
              DLO_CHECK_MSG(!a.negated, "negated EDB atom");
              m.coeff = P::Times(m.coeff, edb.pops(a.pred).Get(t));
            }
          }
          if constexpr (P::kIsSemiring) {
            // Absorption makes 0-coefficient monomials inert.
            if (P::Eq(m.coeff, P::Zero())) drop = true;
          }
          if (!drop) {
            m.Normalize();
            Tuple head;
            head.reserve(rule.head.args.size());
            for (const Term& term : rule.head.args) {
              ConstId id = ground_term(term);
              DLO_CHECK_MSG(id != kUnbound, "unbound head variable");
              head.push_back(id);
            }
            system.poly(var_of(rule.head.pred, head)).Add(std::move(m));
          }
        } else {
          int v = quantified[qi];
          for (ConstId c : adom) {
            binding[v] = c;
            enumerate(qi + 1);
            binding[v] = kUnbound;
          }
        }
        for (int k : newly) checked[k] = false;
      };
      enumerate(0);
    }
  }

  return GroundedProgram<P>(prog, std::move(system), std::move(atom_of_var),
                            std::move(var_lookup));
}

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_GROUNDER_H_
