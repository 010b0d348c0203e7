#include "common/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SPARSENN_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define SPARSENN_NEON 1
#endif

namespace sparsenn {
namespace {

// ------------------------------------------------------------- scalar
// The golden reference: plain loops with exact int64 accumulation.
// Every specialisation below must match these bit-for-bit
// (tests/kernels_test.cpp).

std::int64_t dot_scalar(const std::int16_t* a, const std::int16_t* b,
                        std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t c = 0; c < n; ++c)
    acc += std::int64_t{a[c]} * std::int64_t{b[c]};
  return acc;
}

void axpy_scalar(std::int64_t* acc, const std::int16_t* w, std::int16_t a,
                 std::size_t n) {
  for (std::size_t j = 0; j < n; ++j)
    acc[j] += std::int64_t{w[j]} * std::int64_t{a};
}

void sparse_matvec_scalar(std::int64_t* acc, const std::int16_t* cols,
                          std::size_t m, const std::uint32_t* idx,
                          std::size_t nnz, const std::int16_t* act) {
  for (std::size_t i = 0; i < nnz; ++i) {
    const std::size_t c = idx[i];
    axpy_scalar(acc, cols + c * m, act[c], m);
  }
}

std::size_t scan_scalar(const std::int16_t* v, std::size_t n,
                        std::uint32_t* out) {
  std::size_t count = 0;
  for (std::size_t c = 0; c < n; ++c)
    if (v[c] != 0) out[count++] = static_cast<std::uint32_t>(c);
  return count;
}

void predict_bits_scalar(const std::int16_t* u, std::size_t rows,
                         std::size_t rank, const std::int16_t* s,
                         std::int64_t threshold, std::uint8_t* bits) {
  for (std::size_t r = 0; r < rows; ++r)
    bits[r] = dot_scalar(u + r * rank, s, rank) > threshold ? 1 : 0;
}

void mac_col_scalar(std::int64_t* acc, const std::int16_t* w,
                    std::size_t stride, std::size_t total_words,
                    const std::uint32_t* rows, std::size_t nrows,
                    std::size_t col, std::int16_t a) {
  (void)total_words;
  for (std::size_t i = 0; i < nrows; ++i) {
    const std::size_t r = rows[i];
    acc[r] += std::int64_t{w[r * stride + col]} * std::int64_t{a};
  }
}

void quantize_scalar(const float* in, std::size_t n, float scale,
                     std::int16_t* out) {
  // Mirrors Fixed16::quantize_raw: exact power-of-two scaling, round
  // to nearest (platform default: ties to even), saturate.
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = static_cast<double>(in[i]) * double{scale};
    const double rounded = std::nearbyint(scaled);
    out[i] = static_cast<std::int16_t>(
        std::clamp(rounded, -32768.0, 32767.0));
  }
}

constexpr KernelTable kScalarTable{
    SimdIsa::kScalar,     axpy_scalar,    sparse_matvec_scalar,
    scan_scalar,          predict_bits_scalar, mac_col_scalar,
    quantize_scalar,
};

// --------------------------------------------------------------- AVX2
// 8 int16 MACs per step: widen both operands to i32 (products of two
// int16 fit 31 bits, so mullo_epi32 is exact — note _mm256_madd_epi16
// is NOT usable here: two -32768·-32768 products overflow its i32
// lanes), then widen the products to i64 before accumulating (axpy2
// uses madd only where its guard proves the pair sum fits).
#if defined(SPARSENN_X86)

__attribute__((target("avx2"))) inline std::int64_t hsum_i64x4(__m256i v) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) std::int64_t dot_avx2(
    const std::int16_t* a, const std::int16_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + c));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + c));
    const __m256i p = _mm256_mullo_epi32(_mm256_cvtepi16_epi32(va),
                                         _mm256_cvtepi16_epi32(vb));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p, 1)));
  }
  std::int64_t sum = hsum_i64x4(acc);
  for (; c < n; ++c) sum += std::int64_t{a[c]} * std::int64_t{b[c]};
  return sum;
}

__attribute__((target("avx2"))) void axpy_avx2(std::int64_t* acc,
                                               const std::int16_t* w,
                                               std::int16_t a,
                                               std::size_t n) {
  const __m256i va = _mm256_set1_epi32(std::int32_t{a});
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i w8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j));
    const __m256i p = _mm256_mullo_epi32(_mm256_cvtepi16_epi32(w8), va);
    __m256i* lo = reinterpret_cast<__m256i*>(acc + j);
    __m256i* hi = reinterpret_cast<__m256i*>(acc + j + 4);
    _mm256_storeu_si256(
        lo, _mm256_add_epi64(
                _mm256_loadu_si256(lo),
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p))));
    _mm256_storeu_si256(
        hi, _mm256_add_epi64(
                _mm256_loadu_si256(hi),
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p, 1))));
  }
  for (; j < n; ++j) acc[j] += std::int64_t{w[j]} * std::int64_t{a};
}

__attribute__((target("avx2"))) void axpy2_avx2(
    std::int64_t* acc, const std::int16_t* w0, std::int16_t a0,
    const std::int16_t* w1, std::int16_t a1, std::size_t n) {
  std::size_t j = 0;
  if (a0 != std::int16_t{-32768} || a1 != std::int16_t{-32768}) {
    // madd_epi16 on interleaved (w0[j], w1[j]) pairs computes
    // w0[j]·a0 + w1[j]·a1 in one i32 lane. The only pair sum that can
    // overflow i32 is 2·2^30, which needs BOTH products to be
    // (-32768)² — impossible unless a0 and a1 are both -32768 (the
    // guarded fallback below); otherwise one product is at most
    // 32767·32768 and the sum stays below 2^31. Exact, and one
    // multiply instruction per two MACs.
    const __m256i va = _mm256_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(a0)) |
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(a1))
         << 16)));
    for (; j + 16 <= n; j += 16) {
      const __m256i x0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(w0 + j));
      const __m256i x1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(w1 + j));
      // Per 128-bit half: unpacklo holds rows {0-3, 8-11}, unpackhi
      // rows {4-7, 12-15} as (w0, w1) pairs.
      const __m256i m_lo = _mm256_madd_epi16(
          _mm256_unpacklo_epi16(x0, x1), va);
      const __m256i m_hi = _mm256_madd_epi16(
          _mm256_unpackhi_epi16(x0, x1), va);
      __m256i* bank = reinterpret_cast<__m256i*>(acc + j);
      _mm256_storeu_si256(
          bank, _mm256_add_epi64(
                    _mm256_loadu_si256(bank),
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m_lo))));
      _mm256_storeu_si256(
          bank + 1,
          _mm256_add_epi64(
              _mm256_loadu_si256(bank + 1),
              _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m_hi))));
      _mm256_storeu_si256(
          bank + 2,
          _mm256_add_epi64(
              _mm256_loadu_si256(bank + 2),
              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m_lo, 1))));
      _mm256_storeu_si256(
          bank + 3,
          _mm256_add_epi64(
              _mm256_loadu_si256(bank + 3),
              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m_hi, 1))));
    }
  } else {
    const __m256i va0 = _mm256_set1_epi32(std::int32_t{a0});
    const __m256i va1 = _mm256_set1_epi32(std::int32_t{a1});
    for (; j + 8 <= n; j += 8) {
      const __m128i x0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0 + j));
      const __m128i x1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1 + j));
      const __m256i p0 =
          _mm256_mullo_epi32(_mm256_cvtepi16_epi32(x0), va0);
      const __m256i p1 =
          _mm256_mullo_epi32(_mm256_cvtepi16_epi32(x1), va1);
      // Pair the two products in 64-bit lanes before touching the
      // bank: one accumulator load/store per half instead of two.
      const __m256i lo = _mm256_add_epi64(
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p0)),
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p1)));
      const __m256i hi = _mm256_add_epi64(
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p0, 1)),
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p1, 1)));
      __m256i* bank_lo = reinterpret_cast<__m256i*>(acc + j);
      __m256i* bank_hi = reinterpret_cast<__m256i*>(acc + j + 4);
      _mm256_storeu_si256(
          bank_lo, _mm256_add_epi64(_mm256_loadu_si256(bank_lo), lo));
      _mm256_storeu_si256(
          bank_hi, _mm256_add_epi64(_mm256_loadu_si256(bank_hi), hi));
    }
  }
  for (; j < n; ++j) {
    acc[j] += std::int64_t{w0[j]} * std::int64_t{a0} +
              std::int64_t{w1[j]} * std::int64_t{a1};
  }
}

__attribute__((target("avx2"))) void sparse_matvec_avx2(
    std::int64_t* acc, const std::int16_t* cols, std::size_t m,
    const std::uint32_t* idx, std::size_t nnz, const std::int16_t* act) {
  // Paired column sweeps measure fastest here: register-tiled variants
  // (16/32-row accumulator tiles looping nnz innermost) pay a
  // broadcast + address setup per column per tile that outweighs the
  // saved bank round trips, while the long contiguous axpy2 trip count
  // pipelines cleanly and out-of-order execution hides the bank
  // reload latency across independent lanes.
  std::size_t i = 0;
  for (; i + 2 <= nnz; i += 2) {
    const std::size_t c0 = idx[i];
    const std::size_t c1 = idx[i + 1];
    axpy2_avx2(acc, cols + c0 * m, act[c0], cols + c1 * m, act[c1], m);
  }
  if (i < nnz) {
    const std::size_t c = idx[i];
    axpy_avx2(acc, cols + c * m, act[c], m);
  }
}

__attribute__((target("avx2"))) std::size_t scan_avx2(
    const std::int16_t* v, std::size_t n, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t c = 0;
  const __m256i vzero = _mm256_setzero_si256();
  for (; c + 16 <= n; c += 16) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + c));
    const std::uint32_t zeros = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(x, vzero)));
    std::uint32_t nz = ~zeros;  // two bits per nonzero 16-bit lane
    while (nz != 0) {
      const unsigned lane =
          static_cast<unsigned>(__builtin_ctz(nz)) >> 1;
      out[count++] = static_cast<std::uint32_t>(c + lane);
      nz &= ~(3u << (lane * 2));
    }
  }
  for (; c < n; ++c)
    if (v[c] != 0) out[count++] = static_cast<std::uint32_t>(c);
  return count;
}

__attribute__((target("avx2"))) void predict_bits_avx2(
    const std::int16_t* u, std::size_t rows, std::size_t rank,
    const std::int16_t* s, std::int64_t threshold, std::uint8_t* bits) {
  for (std::size_t r = 0; r < rows; ++r)
    bits[r] = dot_avx2(u + r * rank, s, rank) > threshold ? 1 : 0;
}

// mac_col stays scalar in every table: the destinations acc[rows[i]]
// are scattered (no AVX2 scatter store exists) and each row's word
// sits a full stride from the next, so there is no contiguous vector
// load to feed. Only the per-cycle oracle's consume step calls it, one
// activation at a time; bench/micro_kernels' BM_KernelMacCol times it.

__attribute__((target("avx2"))) void quantize_avx2(const float* in,
                                                   std::size_t n,
                                                   float scale,
                                                   std::int16_t* out) {
  // Clamping the (exact) scaled float into int16 range before the
  // round-to-nearest-even convert is equivalent to rounding first and
  // clamping after — the bounds are exactly representable and ties at
  // the bounds land inside them either way.
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vlo = _mm256_set1_ps(-32768.0f);
  const __m256 vhi = _mm256_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 p = _mm256_mul_ps(_mm256_loadu_ps(in + i), vscale);
    p = _mm256_min_ps(_mm256_max_ps(p, vlo), vhi);
    const __m256i q = _mm256_cvtps_epi32(p);
    const __m128i packed = _mm_packs_epi32(
        _mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  if (i < n) quantize_scalar(in + i, n - i, scale, out + i);
}

constexpr KernelTable kAvx2Table{
    SimdIsa::kAvx2,     axpy_avx2,      sparse_matvec_avx2,
    scan_avx2,          predict_bits_avx2, mac_col_scalar,
    quantize_avx2,
};

// ------------------------------------------------------------- SSE4.2
// Same widening scheme at 128-bit width.

__attribute__((target("sse4.2"))) std::int64_t dot_sse42(
    const std::int16_t* a, const std::int16_t* b, std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + c));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + c));
    const __m128i p_lo = _mm_mullo_epi32(_mm_cvtepi16_epi32(va),
                                         _mm_cvtepi16_epi32(vb));
    const __m128i p_hi =
        _mm_mullo_epi32(_mm_cvtepi16_epi32(_mm_srli_si128(va, 8)),
                        _mm_cvtepi16_epi32(_mm_srli_si128(vb, 8)));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(p_lo));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(_mm_srli_si128(p_lo, 8)));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(p_hi));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(_mm_srli_si128(p_hi, 8)));
  }
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1];
  for (; c < n; ++c) sum += std::int64_t{a[c]} * std::int64_t{b[c]};
  return sum;
}

__attribute__((target("sse4.2"))) void axpy_sse42(std::int64_t* acc,
                                                  const std::int16_t* w,
                                                  std::int16_t a,
                                                  std::size_t n) {
  const __m128i va = _mm_set1_epi32(std::int32_t{a});
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i w4 = _mm_loadl_epi64(  // 4 × i16
        reinterpret_cast<const __m128i*>(w + j));
    const __m128i p = _mm_mullo_epi32(_mm_cvtepi16_epi32(w4), va);
    __m128i* lo = reinterpret_cast<__m128i*>(acc + j);
    __m128i* hi = reinterpret_cast<__m128i*>(acc + j + 2);
    _mm_storeu_si128(
        lo, _mm_add_epi64(_mm_loadu_si128(lo), _mm_cvtepi32_epi64(p)));
    _mm_storeu_si128(
        hi, _mm_add_epi64(_mm_loadu_si128(hi),
                          _mm_cvtepi32_epi64(_mm_srli_si128(p, 8))));
  }
  for (; j < n; ++j) acc[j] += std::int64_t{w[j]} * std::int64_t{a};
}

__attribute__((target("sse4.2"))) void sparse_matvec_sse42(
    std::int64_t* acc, const std::int16_t* cols, std::size_t m,
    const std::uint32_t* idx, std::size_t nnz, const std::int16_t* act) {
  for (std::size_t i = 0; i < nnz; ++i) {
    const std::size_t c = idx[i];
    axpy_sse42(acc, cols + c * m, act[c], m);
  }
}

__attribute__((target("sse4.2"))) std::size_t scan_sse42(
    const std::int16_t* v, std::size_t n, std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t c = 0;
  const __m128i vzero = _mm_setzero_si128();
  for (; c + 8 <= n; c += 8) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + c));
    const std::uint32_t zeros = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi16(x, vzero)));
    std::uint32_t nz = ~zeros & 0xFFFFu;  // two bits per nonzero lane
    while (nz != 0) {
      const unsigned lane =
          static_cast<unsigned>(__builtin_ctz(nz)) >> 1;
      out[count++] = static_cast<std::uint32_t>(c + lane);
      nz &= ~(3u << (lane * 2));
    }
  }
  for (; c < n; ++c)
    if (v[c] != 0) out[count++] = static_cast<std::uint32_t>(c);
  return count;
}

__attribute__((target("sse4.2"))) void predict_bits_sse42(
    const std::int16_t* u, std::size_t rows, std::size_t rank,
    const std::int16_t* s, std::int64_t threshold, std::uint8_t* bits) {
  for (std::size_t r = 0; r < rows; ++r)
    bits[r] = dot_sse42(u + r * rank, s, rank) > threshold ? 1 : 0;
}

__attribute__((target("sse4.2"))) void quantize_sse42(const float* in,
                                                      std::size_t n,
                                                      float scale,
                                                      std::int16_t* out) {
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 vlo = _mm_set1_ps(-32768.0f);
  const __m128 vhi = _mm_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128 p0 = _mm_mul_ps(_mm_loadu_ps(in + i), vscale);
    __m128 p1 = _mm_mul_ps(_mm_loadu_ps(in + i + 4), vscale);
    p0 = _mm_min_ps(_mm_max_ps(p0, vlo), vhi);
    p1 = _mm_min_ps(_mm_max_ps(p1, vlo), vhi);
    const __m128i packed =
        _mm_packs_epi32(_mm_cvtps_epi32(p0), _mm_cvtps_epi32(p1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  if (i < n) quantize_scalar(in + i, n - i, scale, out + i);
}

constexpr KernelTable kSse42Table{
    SimdIsa::kSse42,    axpy_sse42,     sparse_matvec_sse42,
    scan_sse42,         predict_bits_sse42, mac_col_scalar,
    quantize_sse42,
};

#endif  // SPARSENN_X86

// --------------------------------------------------------------- NEON
// vmull_s16 produces exact i32 products; vpadalq_s32 pairwise-adds
// them into i64 accumulators — both exact, so the contract holds.
#if defined(SPARSENN_NEON)

std::int64_t dot_neon(const std::int16_t* a, const std::int16_t* b,
                      std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const int16x8_t va = vld1q_s16(a + c);
    const int16x8_t vb = vld1q_s16(b + c);
    acc = vpadalq_s32(acc, vmull_s16(vget_low_s16(va), vget_low_s16(vb)));
    acc =
        vpadalq_s32(acc, vmull_s16(vget_high_s16(va), vget_high_s16(vb)));
  }
  std::int64_t sum = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; c < n; ++c) sum += std::int64_t{a[c]} * std::int64_t{b[c]};
  return sum;
}

void axpy_neon(std::int64_t* acc, const std::int16_t* w, std::int16_t a,
               std::size_t n) {
  const int16x4_t va = vdup_n_s16(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int32x4_t p = vmull_s16(vld1_s16(w + j), va);
    vst1q_s64(acc + j,
              vaddq_s64(vld1q_s64(acc + j), vmovl_s32(vget_low_s32(p))));
    vst1q_s64(acc + j + 2, vaddq_s64(vld1q_s64(acc + j + 2),
                                     vmovl_s32(vget_high_s32(p))));
  }
  for (; j < n; ++j) acc[j] += std::int64_t{w[j]} * std::int64_t{a};
}

void axpy2_neon(std::int64_t* acc, const std::int16_t* w0,
                std::int16_t a0, const std::int16_t* w1, std::int16_t a1,
                std::size_t n) {
  const int16x4_t va0 = vdup_n_s16(a0);
  const int16x4_t va1 = vdup_n_s16(a1);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int32x4_t p0 = vmull_s16(vld1_s16(w0 + j), va0);
    const int32x4_t p1 = vmull_s16(vld1_s16(w1 + j), va1);
    const int64x2_t lo = vaddq_s64(vmovl_s32(vget_low_s32(p0)),
                                   vmovl_s32(vget_low_s32(p1)));
    const int64x2_t hi = vaddq_s64(vmovl_s32(vget_high_s32(p0)),
                                   vmovl_s32(vget_high_s32(p1)));
    vst1q_s64(acc + j, vaddq_s64(vld1q_s64(acc + j), lo));
    vst1q_s64(acc + j + 2, vaddq_s64(vld1q_s64(acc + j + 2), hi));
  }
  for (; j < n; ++j) {
    acc[j] += std::int64_t{w0[j]} * std::int64_t{a0} +
              std::int64_t{w1[j]} * std::int64_t{a1};
  }
}

void sparse_matvec_neon(std::int64_t* acc, const std::int16_t* cols,
                        std::size_t m, const std::uint32_t* idx,
                        std::size_t nnz, const std::int16_t* act) {
  std::size_t i = 0;
  for (; i + 2 <= nnz; i += 2) {
    const std::size_t c0 = idx[i];
    const std::size_t c1 = idx[i + 1];
    axpy2_neon(acc, cols + c0 * m, act[c0], cols + c1 * m, act[c1], m);
  }
  if (i < nnz) {
    const std::size_t c = idx[i];
    axpy_neon(acc, cols + c * m, act[c], m);
  }
}

std::size_t scan_neon(const std::int16_t* v, std::size_t n,
                      std::uint32_t* out) {
  std::size_t count = 0;
  std::size_t c = 0;
  const int16x8_t vzero = vdupq_n_s16(0);
  for (; c + 8 <= n; c += 8) {
    const uint16x8_t eq = vceqq_s16(vld1q_s16(v + c), vzero);
    // Narrow each 16-bit compare lane (0xFFFF/0x0000) to one byte
    // (0xFF/0x00): the 64-bit mask carries 8 bits per lane.
    const uint64_t zeros = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(eq, 4)), 0);
    std::uint64_t nz = ~zeros;  // 8 bits per nonzero lane
    while (nz != 0) {
      const unsigned lane =
          static_cast<unsigned>(__builtin_ctzll(nz)) >> 3;
      out[count++] = static_cast<std::uint32_t>(c + lane);
      nz &= ~(std::uint64_t{0xFF} << (lane * 8));
    }
  }
  for (; c < n; ++c)
    if (v[c] != 0) out[count++] = static_cast<std::uint32_t>(c);
  return count;
}

void predict_bits_neon(const std::int16_t* u, std::size_t rows,
                       std::size_t rank, const std::int16_t* s,
                       std::int64_t threshold, std::uint8_t* bits) {
  for (std::size_t r = 0; r < rows; ++r)
    bits[r] = dot_neon(u + r * rank, s, rank) > threshold ? 1 : 0;
}

void quantize_neon(const float* in, std::size_t n, float scale,
                   std::int16_t* out) {
  const float32x4_t vscale = vdupq_n_f32(scale);
  const float32x4_t vlo = vdupq_n_f32(-32768.0f);
  const float32x4_t vhi = vdupq_n_f32(32767.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    float32x4_t p0 = vmulq_f32(vld1q_f32(in + i), vscale);
    float32x4_t p1 = vmulq_f32(vld1q_f32(in + i + 4), vscale);
    p0 = vminq_f32(vmaxq_f32(p0, vlo), vhi);
    p1 = vminq_f32(vmaxq_f32(p1, vlo), vhi);
    // vcvtnq rounds to nearest-even like the scalar nearbyint default.
    const int16x8_t packed = vcombine_s16(vqmovn_s32(vcvtnq_s32_f32(p0)),
                                          vqmovn_s32(vcvtnq_s32_f32(p1)));
    vst1q_s16(out + i, packed);
  }
  if (i < n) quantize_scalar(in + i, n - i, scale, out + i);
}

constexpr KernelTable kNeonTable{
    SimdIsa::kNeon,     axpy_neon,      sparse_matvec_neon,
    scan_neon,          predict_bits_neon, mac_col_scalar,
    quantize_neon,
};

#endif  // SPARSENN_NEON

// ----------------------------------------------------------- dispatch

std::atomic<bool> g_force_scalar{false};
std::atomic<const KernelTable*> g_active{nullptr};

bool env_forces_scalar() noexcept {
  // Read once under the resolve() once-flag; no setenv in-process.
  const char* env = std::getenv("SPARSENN_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

const KernelTable* resolve() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed) ||
      env_forces_scalar())
    return &kScalarTable;
  const KernelTable* best = kernels_for(detect_simd_isa());
  return best != nullptr ? best : &kScalarTable;
}

}  // namespace

const char* to_string(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kSse42: return "sse4.2";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kNeon: return "neon";
  }
  return "unknown";
}

SimdIsa detect_simd_isa() noexcept {
#if defined(SPARSENN_X86)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdIsa::kSse42;
#elif defined(SPARSENN_NEON)
  return SimdIsa::kNeon;
#endif
  return SimdIsa::kScalar;
}

SimdIsa active_simd_isa() noexcept { return kernels().isa; }

void force_scalar_kernels(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
  g_active.store(resolve(), std::memory_order_release);
}

const KernelTable& kernels() noexcept {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

const KernelTable& scalar_kernels() noexcept { return kScalarTable; }

const KernelTable* kernels_for(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kScalar:
      return &kScalarTable;
#if defined(SPARSENN_X86)
    case SimdIsa::kSse42:
      return __builtin_cpu_supports("sse4.2") ? &kSse42Table : nullptr;
    case SimdIsa::kAvx2:
      return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
#endif
#if defined(SPARSENN_NEON)
    case SimdIsa::kNeon:
      return &kNeonTable;
#endif
    default:
      return nullptr;
  }
}

}  // namespace sparsenn
