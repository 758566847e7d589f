// The grounder (Sec. 4.3): provenance-polynomial construction, variable
// bookkeeping, and agreement with the relational engine.
#include <gtest/gtest.h>

#include "src/datalogo.h"

namespace datalogo {
namespace {

TEST(Grounder, VariableCountIsAdomToTheArity) {
  Domain dom;
  auto prog = ParseProgram("T(X,Y) :- E(X,Y) ; T(X,Z)*E(Z,Y).", &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<TropS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c");
  auto& e = edb.pops(prog.value().FindPredicate("E"));
  e.Set({a, b}, 1.0);
  e.Set({b, c}, 2.0);
  auto grounded = GroundProgram<TropS>(prog.value(), edb);
  EXPECT_EQ(grounded.num_vars(), 9);  // |ADom|² = 3²
  EXPECT_GE(grounded.VarOf(prog.value().FindPredicate("T"), {a, c}), 0);
  EXPECT_EQ(grounded.VarOf(prog.value().FindPredicate("T"),
                           {a, dom.InternSymbol("zz")}),
            -1);
}

TEST(Grounder, SemiringDropsZeroCoefficientMonomials) {
  // Over Trop+ the only E-tuples in the support generate monomials; the
  // linear part of T(a,c) must reference exactly T(a,b) via E(b,c).
  Domain dom;
  auto prog = ParseProgram("T(X,Y) :- E(X,Y) ; T(X,Z)*E(Z,Y).", &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<TropS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c");
  edb.pops(prog.value().FindPredicate("E")).Set({a, b}, 1.0);
  edb.pops(prog.value().FindPredicate("E")).Set({b, c}, 2.0);
  auto grounded = GroundProgram<TropS>(prog.value(), edb);
  int tac = grounded.VarOf(prog.value().FindPredicate("T"), {a, c});
  int tab = grounded.VarOf(prog.value().FindPredicate("T"), {a, b});
  const Polynomial<TropS>& f = grounded.system().poly(tac);
  ASSERT_EQ(f.monomials.size(), 1u);
  EXPECT_EQ(f.monomials[0].coeff, 2.0);
  EXPECT_EQ(f.monomials[0].powers,
            (std::vector<std::pair<int, int>>{{tab, 1}}));
}

TEST(Grounder, NonSemiringKeepsBottomCoefficients) {
  // Over R⊥, an EDB atom with value ⊥ (unknown cost) must stay in the
  // polynomial and poison the sum (Example 2.6 discussion).
  using L = Lifted<RealS>;
  Domain dom;
  auto prog = ParseProgram(R"(
    bedb E/2.
    edb C/1.
    idb T/1.
    T(X) :- { C(Y) | E(X, Y) }.
  )",
                           &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<L> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c");
  auto& e = edb.boolean(prog.value().FindPredicate("E"));
  e.Set({a, b}, true);
  e.Set({a, c}, true);
  auto& cost = edb.pops(prog.value().FindPredicate("C"));
  cost.Set({b, }, L::Lift(3.0));
  // C(c) stays ⊥ (unknown).
  auto grounded = GroundProgram<L>(prog.value(), edb);
  auto iter = grounded.NaiveIterate(10);
  ASSERT_TRUE(iter.converged);
  int ta = grounded.VarOf(prog.value().FindPredicate("T"), {a});
  EXPECT_TRUE(L::Eq(iter.values[ta], L::Bottom()));  // 3 + ⊥ = ⊥
  // With the cost known, the sum materializes.
  cost.Set({c}, L::Lift(4.0));
  auto grounded2 = GroundProgram<L>(prog.value(), edb);
  auto iter2 = grounded2.NaiveIterate(10);
  int ta2 = grounded2.VarOf(prog.value().FindPredicate("T"), {a});
  EXPECT_TRUE(L::Eq(iter2.values[ta2], L::Lift(7.0)));
}

TEST(Grounder, ConditionsRestrictValuationRange) {
  Domain dom;
  auto prog = ParseProgram(R"(
    bedb E/2.
    idb T/1.
    T(X) :- { 1 | E(X, Y), X != Y }.
  )",
                           &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<TropS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");
  auto& e = edb.boolean(prog.value().FindPredicate("E"));
  e.Set({a, a}, true);
  e.Set({a, b}, true);
  auto grounded = GroundProgram<TropS>(prog.value(), edb);
  int ta = grounded.VarOf(prog.value().FindPredicate("T"), {a});
  int tb = grounded.VarOf(prog.value().FindPredicate("T"), {b});
  // T(a) gets exactly one monomial (via E(a,b)); T(b) none.
  EXPECT_EQ(grounded.system().poly(ta).monomials.size(), 1u);
  EXPECT_TRUE(grounded.system().poly(tb).monomials.empty());
}

TEST(Grounder, DecodeRoundTripsThroughRelations) {
  Domain dom;
  auto prog = ParseProgram("T(X,Y) :- E(X,Y) ; T(X,Z)*E(Z,Y).", &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = RandomGraph(5, 10, /*seed=*/2);
  std::vector<ConstId> ids = InternVertices(5, &dom);
  EdbInstance<TropS> edb(prog.value());
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.value().FindPredicate("E")));
  auto grounded = GroundProgram<TropS>(prog.value(), edb);
  auto iter = grounded.NaiveIterate(1000);
  ASSERT_TRUE(iter.converged);
  IdbInstance<TropS> decoded = grounded.Decode(iter.values);
  int t = prog.value().FindPredicate("T");
  for (int s = 0; s < 5; ++s) {
    for (int v = 0; v < 5; ++v) {
      int var = grounded.VarOf(t, {ids[s], ids[v]});
      EXPECT_EQ(decoded.idb(t).Get({ids[s], ids[v]}), iter.values[var]);
    }
  }
}

TEST(Grounder, HeadConstantsGroundCorrectly) {
  Domain dom;
  auto prog = ParseProgram("T(a) :- E(a, Y).", &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<NatS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");
  edb.pops(prog.value().FindPredicate("E")).Set({a, b}, 3u);
  auto grounded = GroundProgram<NatS>(prog.value(), edb);
  auto iter = grounded.NaiveIterate(10);
  ASSERT_TRUE(iter.converged);
  int ta = grounded.VarOf(prog.value().FindPredicate("T"), {a});
  EXPECT_EQ(iter.values[ta], 3u);
}

TEST(Grounder, OrderComparisonsOverMixedKeysAgreeWithEngine) {
  // Order comparisons are false whenever a side is a symbol, in both
  // engines: the integer part of E still derives, the symbol part never
  // passes `<`/`<=`/`>=`. S's compare is decidable at compile time (X is
  // prebound to the symbol a) and always false.
  Domain dom;
  auto prog = ParseProgram(R"(
    edb E/2.
    idb T/2.
    idb S/1.
    T(X,Y) :- { E(X,Y) | X < Y } ; { T(X,Z) * E(Z,Y) | Z <= Y }.
    S(Y) :- { E(X,Y) | X = a, X >= 0 }.
  )",
                           &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_TRUE(ValidateProgram(prog.value()).ok());
  ASSERT_TRUE(CheckEngineSupport(prog.value()).ok());
  EdbInstance<TropS> edb(prog.value());
  Relation<TropS>& e = edb.pops(prog.value().FindPredicate("E"));
  const ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");
  std::vector<ConstId> ints;
  for (int v = 0; v < 6; ++v) ints.push_back(dom.InternInt(v));
  for (int v = 0; v + 1 < 6; ++v) e.Set({ints[v], ints[v + 1]}, 1.0);
  e.Set({ints[4], ints[2]}, 1.0);  // fails X < Y
  e.Set({ints[1], a}, 2.0);
  e.Set({a, b}, 1.0);
  e.Set({a, ints[3]}, 1.0);
  e.Set({b, ints[0]}, 3.0);

  auto grounded = GroundProgram<TropS>(prog.value(), edb);
  auto iter = grounded.NaiveIterate(1000);
  ASSERT_TRUE(iter.converged);
  IdbInstance<TropS> want = grounded.Decode(iter.values);

  Engine<TropS> engine(prog.value(), edb);
  auto naive = engine.Naive(1000);
  auto semi = engine.SemiNaive(1000);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_TRUE(naive.idb.Equals(want));
  EXPECT_TRUE(semi.idb.Equals(want));

  const int t = prog.value().FindPredicate("T");
  EXPECT_EQ(want.idb(t).Get({ints[0], ints[5]}), 5.0);
  EXPECT_TRUE(want.idb(t).Contains({ints[3], ints[5]}));
  EXPECT_FALSE(want.idb(t).Contains({ints[1], a}));
  EXPECT_FALSE(want.idb(t).Contains({a, ints[3]}));
  EXPECT_EQ(want.idb(prog.value().FindPredicate("S")).support_size(), 0u);
}

TEST(Grounder, NegatedPopsAtomsAreRejectedBeforeTheEngine) {
  Domain dom;
  auto prog = ParseProgram("edb E/2. idb T/2. T(X,Y) :- !E(X,Y).", &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  ASSERT_TRUE(ValidateProgram(prog.value()).ok());
  Status s = CheckEngineSupport(prog.value());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("grounded engine"), std::string::npos);
}

}  // namespace
}  // namespace datalogo
