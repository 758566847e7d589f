// Tiered RelationIndex (relation.h): every tier — hash, direct
// (offset-addressed) and all-rows — must serve exactly the entry lists of
// a brute-force scan of the live rows — same row ids, ascending order —
// over randomized id distributions, forced and auto selection, tombstoned
// rows, post-Compact rebuilds, multi-column and
// heap-spilled (width > Tuple::kInlineCapacity) keys, hash-tag
// collisions, hash-table growth and the in-place refresh paths. Plus the
// IndexCache refresh ladder: cache hits scan nothing, soft mutations
// refresh incrementally (counted into incremental_appends with
// builds/hits unchanged relative to the rebuild-everything behaviour),
// hard mutations rebuild and re-pick the tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/relation/relation.h"
#include "src/semiring/tropical.h"

namespace datalogo {
namespace {

constexpr IndexKind kAllKinds[] = {IndexKind::kHash, IndexKind::kDirect,
                                   IndexKind::kAuto};

/// Probes: every id in [0, max_id], a band beyond it, and extremes —
/// covers present keys, absent in-range keys, and the direct tier's
/// bounds check (including the unsigned-wrap path below base).
std::vector<Tuple> SingleColumnProbes(uint32_t max_id) {
  std::vector<Tuple> probes;
  for (uint32_t v = 0; v <= max_id + 8; ++v) probes.push_back({v});
  probes.push_back({0x7FFFFFFFu});
  probes.push_back({0xFFFFFFFFu});
  return probes;
}

/// The oracle: every live row whose projection on `positions` equals
/// `key`, in ascending row order.
RowIdList ScanLiveRows(const Relation<TropS>& rel,
                       const std::vector<int>& positions, const Tuple& key) {
  RowIdList rows;
  if (key.size() != positions.size()) return rows;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    bool match = true;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      match = match && rel.Cell(r, positions[i]) == key[i];
    }
    if (match) rows.push_back(r);
  }
  return rows;
}

/// `idx` must serve the oracle's list for every probe and for the key of
/// every live row (so hits are covered whatever the probes are).
void ExpectMatchesScan(const RelationIndex<TropS>& idx,
                       const Relation<TropS>& rel,
                       const std::vector<int>& positions,
                       const std::vector<Tuple>& probes,
                       const std::string& what) {
  std::vector<Tuple> keys = probes;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    Tuple key;
    for (int p : positions) key.push_back(rel.Cell(r, p));
    keys.push_back(key);
  }
  for (const Tuple& key : keys) {
    EXPECT_EQ(ScanLiveRows(rel, positions, key), idx.Lookup(key))
        << what << " key0=" << (key.size() ? key[0] : 0)
        << " width=" << key.size();
  }
}

/// Every index kind must agree with the oracle on every probe, list
/// order included.
void ExpectTiersEquivalent(const Relation<TropS>& rel,
                           const std::vector<int>& positions,
                           const std::vector<Tuple>& probes) {
  for (IndexKind kind : kAllKinds) {
    RelationIndex<TropS> idx(rel, positions, kind);
    ExpectMatchesScan(idx, rel, positions, probes,
                      "kind=" + std::to_string(static_cast<int>(kind)));
  }
}

TEST(RelationIndex, DenseIdsSelectDirectAndAgreeWithHash) {
  std::mt19937 rng(11);
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 200; ++i) {
    r.Set({i % 64, static_cast<uint32_t>(rng() % 64)},
          static_cast<double>(rng() % 100));
  }
  RelationIndex<TropS> auto_idx(r, {0}, IndexKind::kAuto);
  EXPECT_EQ(auto_idx.repr(), IndexRepr::kDirectArray);
  EXPECT_FALSE(auto_idx.is_hash());
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(63));
  ExpectTiersEquivalent(r, {1}, SingleColumnProbes(63));
}

TEST(RelationIndex, SparseIdsSelectHashAndAgreeWithForcedDirect) {
  std::mt19937 rng(12);
  Relation<TropS> r(2);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 40; ++i) {
    uint32_t k = rng() % (1u << 19);  // sparse but under kDirectSpanCap
    keys.push_back(k);
    r.Set({k, static_cast<uint32_t>(rng() % 8)}, static_cast<double>(i));
  }
  RelationIndex<TropS> auto_idx(r, {0}, IndexKind::kAuto);
  EXPECT_EQ(auto_idx.repr(), IndexRepr::kHashMap);
  // Forced direct on a sparse-but-in-cap column: wasteful, still exact.
  RelationIndex<TropS> forced(r, {0}, IndexKind::kDirect);
  EXPECT_EQ(forced.repr(), IndexRepr::kDirectArray);
  for (uint32_t k : keys) {
    EXPECT_EQ(ScanLiveRows(r, {0}, {k}), forced.Lookup({k}));
    EXPECT_EQ(ScanLiveRows(r, {0}, {k}), auto_idx.Lookup({k}));
    EXPECT_EQ(ScanLiveRows(r, {0}, {k + 1}), forced.Lookup({k + 1}));
  }
}

TEST(RelationIndex, SpanBeyondCapFallsBackToHashEvenWhenForced) {
  Relation<TropS> r(1);
  r.Set({0}, 1.0);
  r.Set({(1u << 20) + 5}, 2.0);  // span exceeds kDirectSpanCap
  RelationIndex<TropS> forced(r, {0}, IndexKind::kDirect);
  EXPECT_EQ(forced.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(forced.Lookup({0}).size(), 1u);
  EXPECT_EQ(forced.Lookup({(1u << 20) + 5}).size(), 1u);
  EXPECT_EQ(forced.Lookup({17}).size(), 0u);
}

TEST(RelationIndex, AutoThresholdStraddle) {
  // 50 dense keys 0..49 plus one outlier K: live = 51, span = K + 1,
  // and the kAuto density rule is span <= 4*live + 256 = 460. K = 459
  // sits exactly on the boundary (direct); K = 460 tips it to hash.
  for (uint32_t outlier : {459u, 460u}) {
    Relation<TropS> r(2);
    for (uint32_t i = 0; i < 50; ++i) r.Set({i, i}, 1.0);
    r.Set({outlier, 7}, 2.0);
    RelationIndex<TropS> idx(r, {0}, IndexKind::kAuto);
    EXPECT_EQ(idx.repr(), outlier == 459u ? IndexRepr::kDirectArray
                                          : IndexRepr::kHashMap)
        << "outlier=" << outlier;
    ExpectTiersEquivalent(r, {0}, SingleColumnProbes(outlier));
  }
}

TEST(RelationIndex, TombstonedRowsExcludedFromEveryTier) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 32; ++i) r.Set({i % 8, i}, 1.0);
  for (uint32_t i = 0; i < 32; i += 3) {
    r.Set({i % 8, i}, TropS::Inf());  // ⊥ tombstones the row
  }
  ASSERT_GT(r.tombstones(), 0u);
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(8));
  ExpectTiersEquivalent(r, {}, {Tuple{}});
  // Post-Compact the surviving rows are renumbered; all tiers agree on
  // the new ids too.
  r.Compact();
  ASSERT_EQ(r.tombstones(), 0u);
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(8));
  ExpectTiersEquivalent(r, {}, {Tuple{}});
}

TEST(RelationIndex, TombstonedExtremesLeaveLiveRangeAndAllRows) {
  // The dense-detection min/max pass and the all-rows list read live rows
  // only: with the rows holding the extreme keys tombstoned, the live
  // span 10..29 is dense (direct under kAuto), and the empty-key index
  // lists exactly the surviving row ids, ascending.
  Relation<TropS> r(2);
  r.Set({1000, 0}, 1.0);
  for (uint32_t k = 10; k < 30; ++k) r.Set({k, k}, 1.0);
  r.Set({5000, 1}, 1.0);
  r.Set({1000, 0}, TropS::Inf());
  r.Set({5000, 1}, TropS::Inf());
  ASSERT_EQ(r.tombstones(), 2u);
  RelationIndex<TropS> ranged(r, {0}, IndexKind::kAuto);
  EXPECT_EQ(ranged.repr(), IndexRepr::kDirectArray);
  EXPECT_EQ(ranged.Lookup({1000}).size(), 0u);
  EXPECT_EQ(ranged.Lookup({5000}).size(), 0u);
  RelationIndex<TropS> all(r, {}, IndexKind::kAuto);
  ASSERT_EQ(all.repr(), IndexRepr::kAllRows);
  RowIdList live;
  for (uint32_t row = 1; row <= 20; ++row) live.push_back(row);
  EXPECT_EQ(all.Lookup(Tuple{}), live);
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(30));
  ExpectTiersEquivalent(r, {}, {Tuple{}});
}

TEST(RelationIndex, RandomizedMutationEquivalence) {
  for (uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    Relation<TropS> r(2);
    const uint32_t id_range = seed % 2 ? 48 : 4000;  // dense and sparse
    for (int op = 0; op < 300; ++op) {
      uint32_t a = rng() % id_range, b = rng() % 16;
      switch (rng() % 4) {
        case 0:
          r.Set({a, b}, static_cast<double>(rng() % 50));
          break;
        case 1:
          r.Merge({a, b}, static_cast<double>(rng() % 50));
          break;
        case 2:
          r.Set({a, b}, TropS::Inf());  // tombstone (or no-op if absent)
          break;
        case 3:
          if (rng() % 8 == 0) r.Compact();
          break;
      }
    }
    std::vector<Tuple> probes;
    for (int i = 0; i < 64; ++i) {
      probes.push_back({static_cast<uint32_t>(rng() % (id_range + 8))});
    }
    ExpectTiersEquivalent(r, {0}, probes);
    std::vector<Tuple> pair_probes;
    for (int i = 0; i < 64; ++i) {
      pair_probes.push_back({static_cast<uint32_t>(rng() % (id_range + 8)),
                             static_cast<uint32_t>(rng() % 18)});
    }
    ExpectTiersEquivalent(r, {0, 1}, pair_probes);  // multi-col: hash tier
  }
}

TEST(RelationIndex, MultiColumnKeysAcrossTableGrowth) {
  // Sizes straddle several power-of-two slot-table boundaries; keys are
  // mostly distinct pairs with some repeats, so groups hold 1..n rows.
  for (uint32_t n : {1u, 3u, 4u, 5u, 7u, 9u, 31u, 33u, 257u, 1025u}) {
    std::mt19937 rng(n);
    Relation<TropS> r(3);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng() % (n / 2 + 1));
      r.Set({a, i % 7, i}, static_cast<double>(i));
    }
    std::vector<Tuple> probes;
    for (uint32_t i = 0; i < 32; ++i) {
      probes.push_back({static_cast<uint32_t>(rng() % (n + 4)), i % 9});
    }
    ExpectTiersEquivalent(r, {0, 1}, probes);
    ExpectTiersEquivalent(r, {1, 0}, probes);  // key order is significant
  }
}

TEST(RelationIndex, MultiColumnAppendsGrowTheTableInPlace) {
  // Refreshes append past the build-time sizing, so the hash tier grows
  // (re-places its slots) many times while keeping every group.
  Relation<TropS> r(2);
  r.Set(Tuple{0, 0}, 1.0);
  RelationIndex<TropS> idx(r, {0, 1}, IndexKind::kAuto);
  ASSERT_EQ(idx.repr(), IndexRepr::kHashMap);
  std::mt19937 rng(5);
  for (uint32_t round = 0; round < 12; ++round) {
    const uint32_t batch = 1u << round;
    for (uint32_t i = 0; i < batch; ++i) {
      r.Set({static_cast<uint32_t>(rng() % 300),
             static_cast<uint32_t>(rng() % 300)},
            1.0);
    }
    ASSERT_EQ(r.tombstones(), 0u);
    ASSERT_TRUE(idx.AppendNewRows());
    ExpectMatchesScan(idx, r, {0, 1}, {{0, 0}, {299, 299}, {300, 0}},
                      "round=" + std::to_string(round));
  }
}

TEST(RelationIndex, TagCollisionsFallBackToKeyCompare) {
  // The hash tier's slot tag is the low 32 bits of KeyHash, so distinct
  // keys sharing a tag are told apart only by comparing stored keys.
  // Birthday-search two keys that agree on column 0 and collide on the
  // tag; the index must still keep them in separate groups.
  std::unordered_map<uint32_t, uint32_t> seen;
  uint32_t y1 = 0, y2 = 0;
  for (uint32_t y = 0; y2 == 0; ++y) {
    ASSERT_LT(y, 1u << 22) << "no tag collision found";
    const auto tag = static_cast<uint32_t>(KeyHash(Tuple{7, y}));
    auto [it, fresh] = seen.emplace(tag, y);
    if (!fresh) {
      y1 = it->second;
      y2 = y;
    }
  }
  Relation<TropS> r(2);
  r.Set({7, y1}, 1.0);
  r.Set({7, y2}, 2.0);
  r.Set({7, y1 + y2}, 3.0);
  RelationIndex<TropS> idx(r, {0, 1}, IndexKind::kAuto);
  ASSERT_EQ(idx.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(idx.Lookup({7, y1}), RowIdList{0});
  EXPECT_EQ(idx.Lookup({7, y2}), RowIdList{1});
  ExpectMatchesScan(idx, r, {0, 1}, {{8, y1}, {7, y2 + 1}}, "collision");
}

TEST(RelationIndex, WideKeysSpillTupleToHeap) {
  // Width 5 exceeds Tuple::kInlineCapacity: probe keys live on the heap.
  static_assert(Tuple::kInlineCapacity < 5);
  std::mt19937 rng(21);
  Relation<TropS> r(6);
  for (uint32_t i = 0; i < 400; ++i) {
    Tuple t;
    for (int p = 0; p < 6; ++p) t.push_back(static_cast<uint32_t>(rng() % 3));
    r.Set(t, static_cast<double>(i % 11));
  }
  for (uint32_t i = 0; i < r.num_rows(); i += 5) {
    Tuple t;
    for (int p = 0; p < 6; ++p) t.push_back(r.Cell(i, p));
    r.Set(t, TropS::Inf());  // tombstones mixed in
  }
  std::vector<Tuple> probes;
  for (int i = 0; i < 32; ++i) {
    Tuple t;
    for (int p = 0; p < 5; ++p) t.push_back(static_cast<uint32_t>(rng() % 4));
    probes.push_back(t);
  }
  ExpectTiersEquivalent(r, {0, 1, 2, 3, 4}, probes);
  ExpectTiersEquivalent(r, {5, 3, 1, 0, 2}, probes);
}

TEST(RelationIndex, ForcedHashWithEmptyKey) {
  // kHash keeps even the full scan in the hash tier: one group, the
  // empty key, holding every live row.
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 50; ++i) r.Set({i % 9, i}, 1.0);
  r.Set({3, 3}, TropS::Inf());
  RelationIndex<TropS> idx(r, {}, IndexKind::kHash);
  EXPECT_EQ(idx.repr(), IndexRepr::kHashMap);
  EXPECT_TRUE(idx.is_hash());
  EXPECT_EQ(idx.Lookup(Tuple{}).size(), 49u);
  ExpectMatchesScan(idx, r, {}, {Tuple{}, Tuple{3}}, "forced hash, {}");
  Relation<TropS> empty(2);
  RelationIndex<TropS> none(empty, {}, IndexKind::kHash);
  EXPECT_EQ(none.Lookup(Tuple{}).size(), 0u);
}

TEST(RelationIndex, RefreshPathsAfterClearAndRefill) {
  // ResetAndReappend after a Clear + refill, then AppendNewRows on top,
  // must match a brute-force scan in every tier that accepts the
  // refresh; a tier that refuses (a direct key out of range) signals a
  // rebuild, which is not exercised here.
  for (IndexKind kind : kAllKinds) {
    for (const std::vector<int>& positions :
         {std::vector<int>{0}, std::vector<int>{0, 1},
          std::vector<int>{}}) {
      const std::string what =
          "kind=" + std::to_string(static_cast<int>(kind)) +
          " width=" + std::to_string(positions.size());
      Relation<TropS> r(2);
      for (uint32_t i = 0; i < 40; ++i) r.Set({i % 10, i}, 1.0);
      RelationIndex<TropS> idx(r, positions, kind);
      r.Clear();
      // Refill: some old keys, some new, in a different row order.
      for (uint32_t i = 0; i < 30; ++i) r.Set({(i * 7) % 12, 39 - i}, 2.0);
      ASSERT_EQ(r.tombstones(), 0u);
      if (!idx.ResetAndReappend()) {
        EXPECT_NE(idx.repr(), IndexRepr::kHashMap) << what;
        continue;
      }
      std::vector<Tuple> probes;
      for (uint32_t k = 0; k < 14; ++k) {
        Tuple key;
        for (std::size_t i = 0; i < positions.size(); ++i) key.push_back(k);
        probes.push_back(key);
      }
      ExpectMatchesScan(idx, r, positions, probes, what + " reset");
      for (uint32_t i = 0; i < 25; ++i) r.Set({i % 11, 100 + i}, 3.0);
      if (!idx.AppendNewRows()) {
        EXPECT_NE(idx.repr(), IndexRepr::kHashMap) << what;
        continue;
      }
      ExpectMatchesScan(idx, r, positions, probes, what + " append");
    }
  }
}

TEST(RelationIndex, EmptyRelationEveryTier) {
  Relation<TropS> r(2);
  for (IndexKind kind : kAllKinds) {
    RelationIndex<TropS> idx(r, {0}, kind);
    EXPECT_EQ(idx.Lookup({0}).size(), 0u);
    EXPECT_EQ(idx.Lookup({12345}).size(), 0u);
  }
}

// ------------------------------------------------------------ IndexCache

TEST(IndexCache, HitPathScansNothing) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 20; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.Get(r, {0});
  const uint64_t scans_after_build = cache.scan_rows();
  EXPECT_GT(scans_after_build, 0u);
  for (int i = 0; i < 5; ++i) cache.Get(r, {0});
  EXPECT_EQ(cache.scan_rows(), scans_after_build);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 5u);
}

TEST(IndexCache, AppendOnlyMutationRefreshesIncrementally) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.set_kind(IndexKind::kHash);
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  for (uint32_t i = 10; i < 15; ++i) r.Set({i, i}, 1.0);  // soft appends
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);  // refreshed in place, not replaced
  EXPECT_EQ(cache.builds(), 2u);  // refresh still counts as a build
  EXPECT_EQ(cache.incremental_appends(), 5u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
}

TEST(IndexCache, DirectTierAppendsInRangeWithoutRebuild) {
  // A direct index refreshes in place as long as appended keys stay in
  // its bucket range — build with a span that already covers them.
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  r.Set({19, 0}, 5.0);  // stretch the span to 20 up front
  IndexCache<TropS> cache;
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  ASSERT_EQ(idx->repr(), IndexRepr::kDirectArray);
  for (uint32_t i = 10; i < 15; ++i) r.Set({i, i}, 1.0);  // in range
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(idx2->repr(), IndexRepr::kDirectArray);
  EXPECT_EQ(cache.incremental_appends(), 5u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 22; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
}

TEST(IndexCache, ClearRefillRefreshesByReappend) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  r.Clear();
  for (uint32_t i = 0; i < 7; ++i) r.Set({i + 2, i}, 3.0);
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(cache.incremental_appends(), 7u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 12; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
  EXPECT_EQ(idx2->Lookup({0}).size(), 0u);  // old key really gone
}

TEST(IndexCache, HardMutationRebuilds) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.Get(r, {0});
  r.Set({4, 4}, TropS::Inf());  // tombstone: membership shrank, hard
  const RelationIndex<TropS>& idx = cache.Get(r, {0});
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.incremental_appends(), 0u);  // no refresh was possible
  EXPECT_EQ(idx.Lookup({4}).size(), 0u);
  EXPECT_EQ(idx.Lookup({5}).size(), 1u);
}

TEST(IndexCache, RangeEscapingAppendRebuildsAndRepicksTier) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  const RelationIndex<TropS>& before = cache.Get(r, {0});
  EXPECT_EQ(before.repr(), IndexRepr::kDirectArray);
  // A soft append whose key escapes the direct tier's bucket range: the
  // in-place refresh must refuse (no partial mutation) and the rebuild
  // re-picks the tier — now hash, the column having gone sparse.
  r.Set({5000, 1}, 2.0);
  const RelationIndex<TropS>& after = cache.Get(r, {0});
  EXPECT_EQ(after.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(after.Lookup({5000}).size(), 1u);
  EXPECT_EQ(after.Lookup({3}).size(), 1u);
  EXPECT_EQ(cache.incremental_appends(), 0u);
}

TEST(IndexCache, BuildAndHitCountersIdenticalAcrossKinds) {
  // The four pinned engine counters derive from builds()/hits(); they
  // must not depend on which tier serves the lookups.
  auto run = [](IndexKind kind) {
    Relation<TropS> r(2);
    IndexCache<TropS> cache;
    cache.set_kind(kind);
    for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
    cache.Get(r, {0});
    cache.Get(r, {0});
    for (uint32_t i = 10; i < 14; ++i) r.Set({i, i}, 1.0);
    cache.Get(r, {0});
    r.Clear();
    for (uint32_t i = 0; i < 6; ++i) r.Set({i, i}, 2.0);
    cache.Get(r, {0});
    r.Set({2, 2}, TropS::Inf());
    cache.Get(r, {0});
    return std::pair<uint64_t, uint64_t>(cache.builds(), cache.hits());
  };
  const auto hash_counts = run(IndexKind::kHash);
  EXPECT_EQ(hash_counts, run(IndexKind::kDirect));
  EXPECT_EQ(hash_counts, run(IndexKind::kAuto));
}

TEST(IndexCache, PinnedEntriesSurviveEviction) {
  Relation<TropS> pinned_rel(1), transient_rel(1);
  pinned_rel.Set({1}, 1.0);
  transient_rel.Set({2}, 2.0);
  IndexCache<TropS> cache;
  cache.Get(pinned_rel, {0}, /*pin=*/true);
  cache.Get(transient_rel, {0});
  cache.MaybeEvict();
  cache.MaybeEvict();  // transient idle for a full epoch: dropped
  cache.Get(pinned_rel, {0});
  cache.Get(transient_rel, {0});
  EXPECT_EQ(cache.builds(), 3u);  // only the transient entry rebuilt
  EXPECT_EQ(cache.hits(), 1u);    // the pinned entry was still there
}

}  // namespace
}  // namespace datalogo
