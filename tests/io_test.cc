// TSV relation I/O.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

TEST(Io, LoadTropRelation) {
  Domain dom;
  Relation<TropS> rel(2);
  Status s = LoadTsv<TropS>(
      "# edges\n"
      "a b 1.5\n"
      "b c 2\n"
      "\n"
      "a c 9.25\n",
      &dom, &rel, ParseDoubleValue);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rel.support_size(), 3u);
  EXPECT_EQ(rel.Get({*dom.FindSymbol("a"), *dom.FindSymbol("b")}), 1.5);
}

TEST(Io, RepeatedTuplesAccumulate) {
  Domain dom;
  Relation<TropS> rel(1);
  ASSERT_TRUE(LoadTsv<TropS>("x 5\nx 3\nx 7\n", &dom, &rel,
                             ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.Get({*dom.FindSymbol("x")}), 3.0);  // min
}

TEST(Io, IntKeysInternAsIntegers) {
  Domain dom;
  Relation<NatS> rel(2);
  ASSERT_TRUE(
      LoadTsv<NatS>("1 2 10\n-3 2 4\n", &dom, &rel, ParseUintValue).ok());
  EXPECT_EQ(rel.Get({dom.InternInt(1), dom.InternInt(2)}), 10u);
  EXPECT_EQ(rel.Get({dom.InternInt(-3), dom.InternInt(2)}), 4u);
}

TEST(Io, ColumnCountErrors) {
  Domain dom;
  Relation<TropS> rel(2);
  Status s = LoadTsv<TropS>("a b\n", &dom, &rel, ParseDoubleValue);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
}

TEST(Io, BadValueErrors) {
  Domain dom;
  Relation<TropS> rel(1);
  EXPECT_FALSE(
      LoadTsv<TropS>("a not_a_number\n", &dom, &rel, ParseDoubleValue).ok());
}

TEST(Io, BoolRelationAllColumnsAreKeys) {
  Domain dom;
  Relation<BoolS> rel(2);
  ASSERT_TRUE(LoadTsvBool("a b\nb c\n", &dom, &rel).ok());
  EXPECT_EQ(rel.support_size(), 2u);
  EXPECT_TRUE(rel.Get({*dom.FindSymbol("b"), *dom.FindSymbol("c")}));
}

TEST(Io, DumpRoundTrips) {
  Domain dom;
  Relation<TropS> rel(2);
  rel.Set({dom.InternSymbol("b"), dom.InternSymbol("a")}, 2.0);
  rel.Set({dom.InternSymbol("a"), dom.InternSymbol("b")}, 1.0);
  std::string tsv = DumpTsv(rel, dom);
  Domain dom2;
  Relation<TropS> rel2(2);
  ASSERT_TRUE(LoadTsv<TropS>(tsv, &dom2, &rel2, ParseDoubleValue).ok());
  EXPECT_EQ(rel2.support_size(), 2u);
  EXPECT_EQ(rel2.Get({*dom2.FindSymbol("a"), *dom2.FindSymbol("b")}), 1.0);
}

TEST(Io, EndToEndProgramFromTsv) {
  // Load edges from TSV, run APSP, dump the result.
  Domain dom;
  auto prog = ParseProgram(
                  "edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).",
                  &dom)
                  .value();
  EdbInstance<TropS> edb(prog);
  ASSERT_TRUE(LoadTsv<TropS>("a b 1\nb c 2\n", &dom,
                             &edb.pops(prog.FindPredicate("E")),
                             ParseDoubleValue)
                  .ok());
  Engine<TropS> engine(prog, edb);
  auto r = engine.SemiNaive(100);
  ASSERT_TRUE(r.converged);
  std::string out = DumpTsv(r.idb.idb(prog.FindPredicate("T")), dom);
  EXPECT_NE(out.find("a\tc\t3"), std::string::npos) << out;
}

TEST(Io, OutOfRangeIntKeyIsLoadErrorNotException) {
  // These tokens pass the integer-shape check but overflow int64: the
  // loader must return InvalidArgument (with the line number) instead of
  // letting std::out_of_range escape.
  for (const char* tok :
       {"-99999999999999999999999", "99999999999999999999999",
        "9223372036854775808",   // INT64_MAX + 1
        "-9223372036854775809",  // INT64_MIN - 1
        "18446744073709551616"}) {
    Domain dom;
    Relation<TropS> rel(1);
    Status s = LoadTsv<TropS>(std::string("a 1\n") + tok + " 2\n", &dom,
                              &rel, ParseDoubleValue);
    ASSERT_FALSE(s.ok()) << tok;
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << tok;
    EXPECT_NE(s.ToString().find("line 2"), std::string::npos)
        << s.ToString();

    Relation<BoolS> brel(1);
    Status bs = LoadTsvBool(std::string(tok) + "\n", &dom, &brel);
    ASSERT_FALSE(bs.ok()) << tok;
    EXPECT_EQ(bs.code(), Code::kInvalidArgument) << tok;
    EXPECT_NE(bs.ToString().find("line 1"), std::string::npos)
        << bs.ToString();
  }
  // Exactly-at-the-limit tokens still load.
  Domain dom;
  Relation<TropS> rel(1);
  EXPECT_TRUE(LoadTsv<TropS>(
                  "9223372036854775807 1\n-9223372036854775808 2\n", &dom,
                  &rel, ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.support_size(), 2u);
}

TEST(Io, HashLeadingKeyIsLoadError) {
  // A '#' opens a comment only as a line's first byte; as a later key
  // it would intern a symbol DumpTsv cannot write back, so every loader
  // rejects it with the line number instead.
  Domain dom;
  Relation<TropS> rel(2);
  Status s = LoadTsv<TropS>("a\tb\t1\na\t#b\t1\n", &dom, &rel,
                            ParseDoubleValue);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_NE(s.ToString().find("line 2"), std::string::npos) << s.ToString();

  Relation<BoolS> brel(2);
  Status bs = LoadTsvBool("a #b\n", &dom, &brel);
  ASSERT_FALSE(bs.ok());
  EXPECT_EQ(bs.code(), Code::kInvalidArgument);
  EXPECT_NE(bs.ToString().find("line 1"), std::string::npos)
      << bs.ToString();

  // '#' inside a token is an ordinary symbol byte.
  Relation<TropS> ok(2);
  EXPECT_TRUE(LoadTsv<TropS>("a b#c 1\n", &dom, &ok, ParseDoubleValue).ok());
  EXPECT_EQ(ok.support_size(), 1u);
}

TEST(Io, OutOfRangeUintValueIsParseError) {
  Domain dom;
  Relation<NatS> rel(1);
  Status s = LoadTsv<NatS>("a 99999999999999999999999\n", &dom, &rel,
                           ParseUintValue);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
}

TEST(Io, NonDumpableSymbolsRejectedAtDump) {
  // A symbol containing whitespace would re-split into extra columns on
  // reload; empty / '#'-leading / integer-spelling symbols would vanish
  // or re-intern as something else. All must fail at dump time.
  for (const char* bad : {"has space", "has\ttab", "has\nnewline", "",
                          "#comment", "42", "-7"}) {
    Domain dom;
    Relation<TropS> rel(1);
    rel.Set({dom.InternSymbol(bad)}, 1.0);
    std::string out;
    Status s = DumpTsvChecked(rel, dom, &out);
    ASSERT_FALSE(s.ok()) << "'" << bad << "'";
    EXPECT_EQ(s.code(), Code::kInvalidArgument);
  }
}

TEST(Io, CrlfLoadsLikeLf) {
  Domain dom;
  Relation<TropS> rel(2);
  ASSERT_TRUE(LoadTsv<TropS>("a b 1\r\nb c 2\r\n", &dom, &rel,
                             ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.support_size(), 2u);
  EXPECT_EQ(rel.Get({*dom.FindSymbol("a"), *dom.FindSymbol("b")}), 1.0);
  Relation<BoolS> brel(1);
  ASSERT_TRUE(LoadTsvBool("x\r\ny\r\n", &dom, &brel).ok());
  EXPECT_TRUE(brel.Get({*dom.FindSymbol("x")}));
}

TEST(Io, RandomizedDumpLoadRoundTrip) {
  // Property: any relation over dumpable symbols and integers survives
  // Dump → Load into a fresh domain with identical support and values.
  std::mt19937 rng(7);
  const int iters = CiIterations(200, 40);
  for (int it = 0; it < iters; ++it) {
    Domain dom;
    const int arity = 1 + static_cast<int>(rng() % 3);
    Relation<NatS> rel(arity);
    const int rows = static_cast<int>(rng() % 12);
    for (int r = 0; r < rows; ++r) {
      Tuple t;
      for (int p = 0; p < arity; ++p) {
        if (rng() % 2) {
          t.push_back(dom.InternInt(static_cast<int64_t>(rng() % 1000) - 500));
        } else {
          t.push_back(dom.InternSymbol("s" + std::to_string(rng() % 50)));
        }
      }
      rel.Merge(t, uint64_t{1} + rng() % 100);
    }
    std::string tsv;
    ASSERT_TRUE(DumpTsvChecked(rel, dom, &tsv).ok());
    Domain dom2;
    Relation<NatS> rel2(arity);
    ASSERT_TRUE(LoadTsv<NatS>(tsv, &dom2, &rel2, ParseUintValue).ok())
        << tsv;
    ASSERT_EQ(rel2.support_size(), rel.support_size()) << tsv;
    // Values survive: re-dump from the fresh domain must match byte-wise
    // (rows are emitted in lexicographic key order on both sides... of
    // the SAME interning, so compare through a second round-trip).
    std::string tsv2;
    ASSERT_TRUE(DumpTsvChecked(rel2, dom2, &tsv2).ok());
    Domain dom3;
    Relation<NatS> rel3(arity);
    ASSERT_TRUE(LoadTsv<NatS>(tsv2, &dom3, &rel3, ParseUintValue).ok());
    ASSERT_EQ(rel3.support_size(), rel.support_size());
  }
}

TEST(Io, LoaderNeverThrowsOnArbitraryInput) {
  // Fuzz-ish sweep: random token soup (integer-shaped, overflowing,
  // comment-like, junk) must always produce Ok or InvalidArgument —
  // never an exception, never a crash.
  std::mt19937 rng(13);
  const char* pieces[] = {"a",
                          "42",
                          "-7",
                          "99999999999999999999999",
                          "-99999999999999999999999",
                          "9223372036854775808",
                          "#x",
                          "1.5",
                          "nan",
                          "s#y",
                          "--3",
                          "0000000000000000000000009"};
  const int iters = CiIterations(500, 100);
  for (int it = 0; it < iters; ++it) {
    std::string text;
    const int lines = static_cast<int>(rng() % 6);
    for (int l = 0; l < lines; ++l) {
      const int toks = static_cast<int>(rng() % 5);
      for (int t = 0; t < toks; ++t) {
        if (t) text += (rng() % 4 == 0) ? '\t' : ' ';
        text += pieces[rng() % (sizeof(pieces) / sizeof(pieces[0]))];
      }
      text += (rng() % 4 == 0) ? "\r\n" : "\n";
    }
    Domain dom;
    Relation<TropS> rel(2);
    Status s = LoadTsv<TropS>(text, &dom, &rel, ParseDoubleValue);
    EXPECT_TRUE(s.ok() || s.code() == Code::kInvalidArgument) << text;
    Relation<BoolS> brel(2);
    Status bs = LoadTsvBool(text, &dom, &brel);
    EXPECT_TRUE(bs.ok() || bs.code() == Code::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace datalogo
