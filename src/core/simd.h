// Portable SIMD column-scan kernels for the columnar relation store.
//
// The primitives cover every vectorizable pass the index subsystem
// performs: compacting live-flag bytes to row ids (index construction
// over tombstoned stores), equality-filtering a ConstId column against
// one key (small-span direct-index builds), and exact min/max of a
// ConstId column (dense-range detection for direct indexes). The join
// itself stays scalar.
//
// Dispatch is two-level. The instruction set is chosen at compile time
// by preprocessor detection (AVX2 > SSE2 on x86, NEON on arm64, scalar
// elsewhere); within one binary, every primitive also takes a runtime
// ScanKernel switch so the scalar path — the definitional reference —
// stays selectable for differential testing and benchmarking. Both
// paths emit row ids in ascending order and never read past the given
// length (tails are scalar), so outputs are bit-identical across
// kernels and sanitizer-clean: the engine's determinism pins do not
// depend on which kernel ran.
#ifndef DATALOGO_CORE_SIMD_H_
#define DATALOGO_CORE_SIMD_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace datalogo {

/// Runtime selection of the column-scan implementation. kSimd uses the
/// best instruction set the binary was compiled for (falling back to
/// scalar code when there is none); kScalar forces the reference loops.
enum class ScanKernel : uint8_t { kScalar = 0, kSimd = 1 };

/// The process-wide default kernel: DATALOGO_SCAN=scalar|simd overrides
/// (read once); otherwise kSimd — safe because results are identical by
/// construction.
inline ScanKernel DefaultScanKernel() {
  static const ScanKernel kDefault = [] {
    const char* v = std::getenv("DATALOGO_SCAN");
    if (v != nullptr && v[0] == 's' && v[1] == 'c') return ScanKernel::kScalar;
    return ScanKernel::kSimd;
  }();
  return kDefault;
}

namespace simd {

#if defined(__AVX2__)
inline constexpr const char* kIsaName = "avx2";
inline constexpr uint32_t kLanes32 = 8;   ///< u32 lanes per vector op
inline constexpr uint32_t kLanes8 = 32;   ///< u8 lanes per vector op
#elif defined(__SSE2__)
inline constexpr const char* kIsaName = "sse2";
inline constexpr uint32_t kLanes32 = 4;
inline constexpr uint32_t kLanes8 = 16;
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
inline constexpr const char* kIsaName = "neon";
inline constexpr uint32_t kLanes32 = 4;
inline constexpr uint32_t kLanes8 = 16;
#else
inline constexpr const char* kIsaName = "scalar";
inline constexpr uint32_t kLanes32 = 1;
inline constexpr uint32_t kLanes8 = 1;
#endif

/// The instruction set the kSimd paths compile to in this binary.
inline const char* IsaName() { return kIsaName; }

// ------------------------------------------------------------------
// CollectLiveRows: append every r in [0, n) with live[r] != 0 to *out,
// ascending. The hot scan of index construction over stores that carry
// tombstones (and the whole build for key-less "all rows" indexes).

inline void CollectLiveRowsScalar(const uint8_t* live, uint32_t n,
                                  std::vector<uint32_t>* out) {
  for (uint32_t r = 0; r < n; ++r) {
    if (live[r]) out->push_back(r);
  }
}

inline void CollectLiveRows(const uint8_t* live, uint32_t n, ScanKernel k,
                            std::vector<uint32_t>* out) {
  if (k == ScanKernel::kScalar) {
    CollectLiveRowsScalar(live, n, out);
    return;
  }
  uint32_t r = 0;
#if defined(__AVX2__)
  const __m256i zero = _mm256_setzero_si256();
  for (; r + 32 <= n; r += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(live + r));
    uint32_t alive = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    while (alive) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(alive)));
      alive &= alive - 1;
    }
  }
#elif defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  for (; r + 16 <= n; r += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(live + r));
    uint32_t alive =
        ~static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero))) &
        0xFFFFu;
    while (alive) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(alive)));
      alive &= alive - 1;
    }
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  // NEON has no movemask; narrow each byte's comparison result to a
  // nibble (vshrn by 4), giving a 64-bit mask with 4 bits per lane.
  for (; r + 16 <= n; r += 16) {
    uint8x16_t v = vld1q_u8(live + r);
    uint8x16_t nonzero = vtstq_u8(v, v);
    uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u8(nonzero), 4);
    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    while (m) {
      uint32_t i = static_cast<uint32_t>(__builtin_ctzll(m)) >> 2;
      out->push_back(r + i);
      m &= ~(0xFull << (i * 4));
    }
  }
#endif
  for (; r < n; ++r) {
    if (live[r]) out->push_back(r);
  }
}

// ------------------------------------------------------------------
// FilterEqRows: append every r in [0, n) with col[r] == key to *out,
// ascending. Callers guarantee the whole range is live (tombstone-free
// stores) — this is the per-key pass of small-span direct-index builds,
// where scanning the column once per key beats a scalar scatter.

inline void FilterEqRowsScalar(const uint32_t* col, uint32_t n, uint32_t key,
                               std::vector<uint32_t>* out) {
  for (uint32_t r = 0; r < n; ++r) {
    if (col[r] == key) out->push_back(r);
  }
}

inline void FilterEqRows(const uint32_t* col, uint32_t n, uint32_t key,
                         ScanKernel k, std::vector<uint32_t>* out) {
  if (k == ScanKernel::kScalar) {
    FilterEqRowsScalar(col, n, key, out);
    return;
  }
  uint32_t r = 0;
#if defined(__AVX2__)
  const __m256i kv = _mm256_set1_epi32(static_cast<int>(key));
  for (; r + 8 <= n; r += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, kv))));
    while (m) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
  }
#elif defined(__SSE2__)
  const __m128i kv = _mm_set1_epi32(static_cast<int>(key));
  for (; r + 4 <= n; r += 4) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + r));
    uint32_t m = static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, kv))));
    while (m) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  const uint32x4_t kv = vdupq_n_u32(key);
  for (; r + 4 <= n; r += 4) {
    uint32x4_t eq = vceqq_u32(vld1q_u32(col + r), kv);
    // Nibble-narrow as above: each u32 lane occupies 8 mask bits.
    uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u32(eq), 4);
    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    while (m) {
      uint32_t i = static_cast<uint32_t>(__builtin_ctzll(m)) >> 3;
      out->push_back(r + i);
      m &= ~(0xFFull << (i * 8));
    }
  }
#endif
  for (; r < n; ++r) {
    if (col[r] == key) out->push_back(r);
  }
}

// ------------------------------------------------------------------
// MinMaxU32: exact unsigned min and max of col[0..n). Requires n > 0.
// Feeds the direct-index density rule, so both kernels must be exact —
// a SIMD approximation would make index-kind selection diverge.

inline void MinMaxU32Scalar(const uint32_t* col, uint32_t n, uint32_t* lo,
                            uint32_t* hi) {
  uint32_t mn = col[0], mx = col[0];
  for (uint32_t r = 1; r < n; ++r) {
    if (col[r] < mn) mn = col[r];
    if (col[r] > mx) mx = col[r];
  }
  *lo = mn;
  *hi = mx;
}

inline void MinMaxU32(const uint32_t* col, uint32_t n, uint32_t* lo,
                      uint32_t* hi, ScanKernel k) {
  if (k == ScanKernel::kScalar || n < 2 * kLanes32) {
    MinMaxU32Scalar(col, n, lo, hi);
    return;
  }
  uint32_t r = 0;
  uint32_t mn = col[0], mx = col[0];
#if defined(__AVX2__)
  __m256i vmn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col));
  __m256i vmx = vmn;
  for (r = 8; r + 8 <= n; r += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    vmn = _mm256_min_epu32(vmn, v);
    vmx = _mm256_max_epu32(vmx, v);
  }
  alignas(32) uint32_t lanes_mn[8], lanes_mx[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes_mn), vmn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes_mx), vmx);
  for (int i = 0; i < 8; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#elif defined(__SSE2__)
  // SSE2 has no unsigned 32-bit min/max; bias by 0x80000000 so signed
  // compare orders like unsigned, and blend through the compare mask.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  __m128i vmn = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col));
  __m128i vmx = vmn;
  for (r = 4; r + 4 <= n; r += 4) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + r));
    __m128i gt_mn = _mm_cmpgt_epi32(_mm_xor_si128(vmn, bias),
                                    _mm_xor_si128(v, bias));
    vmn = _mm_or_si128(_mm_and_si128(gt_mn, v),
                       _mm_andnot_si128(gt_mn, vmn));
    __m128i gt_v = _mm_cmpgt_epi32(_mm_xor_si128(v, bias),
                                   _mm_xor_si128(vmx, bias));
    vmx = _mm_or_si128(_mm_and_si128(gt_v, v),
                       _mm_andnot_si128(gt_v, vmx));
  }
  alignas(16) uint32_t lanes_mn[4], lanes_mx[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes_mn), vmn);
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes_mx), vmx);
  for (int i = 0; i < 4; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  uint32x4_t vmn = vld1q_u32(col);
  uint32x4_t vmx = vmn;
  for (r = 4; r + 4 <= n; r += 4) {
    uint32x4_t v = vld1q_u32(col + r);
    vmn = vminq_u32(vmn, v);
    vmx = vmaxq_u32(vmx, v);
  }
  uint32_t lanes_mn[4], lanes_mx[4];
  vst1q_u32(lanes_mn, vmn);
  vst1q_u32(lanes_mx, vmx);
  for (int i = 0; i < 4; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#endif
  for (; r < n; ++r) {
    if (col[r] < mn) mn = col[r];
    if (col[r] > mx) mx = col[r];
  }
  *lo = mn;
  *hi = mx;
}

}  // namespace simd
}  // namespace datalogo

#endif  // DATALOGO_CORE_SIMD_H_
