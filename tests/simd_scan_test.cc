// SIMD column-scan kernels (src/core/simd.h) vs the scalar reference:
// outputs must be bit-identical for every tail length — the
// differential surface is 0..2×lane-width plus a few, so every
// vector-body/scalar-tail split point is crossed — and for adversarial
// contents (all-zero, all-ones, extreme u32 values that break
// signed-compare shortcuts).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "src/core/simd.h"

namespace datalogo {
namespace {

TEST(SimdScan, CollectLiveRowsMatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0xC011EC7);
  for (uint32_t n = 0; n <= 2 * simd::kLanes8 + 3; ++n) {
    for (double density : {0.0, 0.5, 1.0}) {
      std::bernoulli_distribution alive(density);
      std::vector<uint8_t> live(n);
      // Live flags are nominally 0/1, but the kernels must treat any
      // nonzero byte as live.
      for (auto& f : live) f = alive(rng) ? (rng() % 2 ? 1 : 2) : 0;
      std::vector<uint32_t> ref, got;
      simd::CollectLiveRowsScalar(live.data(), n, &ref);
      simd::CollectLiveRows(live.data(), n, ScanKernel::kSimd, &got);
      EXPECT_EQ(ref, got) << "n=" << n << " density=" << density;
      // The runtime switch must really route to the reference loop.
      std::vector<uint32_t> via_switch;
      simd::CollectLiveRows(live.data(), n, ScanKernel::kScalar,
                            &via_switch);
      EXPECT_EQ(ref, via_switch);
    }
  }
}

TEST(SimdScan, FilterEqRowsMatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0xF117E4);
  for (uint32_t n = 0; n <= 2 * simd::kLanes32 + 3; ++n) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<uint32_t> col(n);
      uint32_t key = 0;
      switch (variant) {
        case 0:  // random small ids, key present with repeats
          for (auto& c : col) c = rng() % 4;
          key = 2;
          break;
        case 1:  // key absent
          for (auto& c : col) c = rng() % 100;
          key = 1000;
          break;
        case 2:  // every element matches
          for (auto& c : col) c = 7;
          key = 7;
          break;
        case 3:  // extreme values: sign-bit patterns must not confuse
                 // the integer-compare paths
          for (auto& c : col) c = rng() % 2 ? 0u : 0xFFFFFFFFu;
          key = 0xFFFFFFFFu;
          break;
      }
      std::vector<uint32_t> ref, got;
      simd::FilterEqRowsScalar(col.data(), n, key, &ref);
      simd::FilterEqRows(col.data(), n, key, ScanKernel::kSimd, &got);
      EXPECT_EQ(ref, got) << "n=" << n << " variant=" << variant;
    }
  }
}

TEST(SimdScan, MinMaxU32MatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0x314159);
  for (uint32_t n = 1; n <= 4 * simd::kLanes32 + 3; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint32_t> col(n);
      for (auto& c : col) {
        // Variant 2 stresses values above INT32_MAX: an unsigned min/max
        // implemented with signed compares would order them wrong.
        c = variant == 0 ? rng() % 64
                         : variant == 1 ? static_cast<uint32_t>(rng())
                                        : 0x80000000u + rng() % 1024;
      }
      uint32_t ref_lo = 0, ref_hi = 0, lo = 0, hi = 0;
      simd::MinMaxU32Scalar(col.data(), n, &ref_lo, &ref_hi);
      simd::MinMaxU32(col.data(), n, &lo, &hi, ScanKernel::kSimd);
      EXPECT_EQ(ref_lo, lo) << "n=" << n << " variant=" << variant;
      EXPECT_EQ(ref_hi, hi) << "n=" << n << " variant=" << variant;
    }
  }
}

TEST(SimdScan, RowIdsAreAscending) {
  // Both downstream consumers (EntryLists, dense detection) rely on
  // kernel outputs preserving row order; spot-check a mixed pattern.
  std::vector<uint8_t> live = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0,
                               1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1};
  std::vector<uint32_t> rows;
  simd::CollectLiveRows(live.data(), static_cast<uint32_t>(live.size()),
                        ScanKernel::kSimd, &rows);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1], rows[i]);
  }
}

}  // namespace
}  // namespace datalogo
