#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if (defined(__AVX2__) && defined(__FMA__)) || defined(__AVX512F__)
// GCC 12's AVX-512 intrinsics pass `_mm512_undefined_*()` (a self-initialized
// local) as the unused merge operand, which -Wmaybe-uninitialized reports at
// every inlined call site; the warnings point into the header, not at this
// file's code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "src/obs/metrics.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/gemm_kernels.h"

namespace ullsnn {

namespace detail {

void micro_kernel_int8_scalar(const std::uint8_t* ap, const std::int8_t* bp,
                              std::int32_t* acc, std::int64_t kq) {
  std::int32_t local[kMR][kInt8Nr] = {};
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::uint8_t* a = ap + q * kMR * 4;
    const std::int8_t* b = bp + q * kInt8Nr * 4;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const std::uint8_t* ai = a + i * 4;
      for (std::int64_t j = 0; j < kInt8Nr; ++j) {
        const std::int8_t* bj = b + j * 4;
        local[i][j] += static_cast<std::int32_t>(ai[0]) * bj[0] +
                       static_cast<std::int32_t>(ai[1]) * bj[1] +
                       static_cast<std::int32_t>(ai[2]) * bj[2] +
                       static_cast<std::int32_t>(ai[3]) * bj[3];
      }
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

}  // namespace detail

namespace {

using detail::ceil_div;
using detail::kInt8Nr;
using detail::kKC;
using detail::kMC;
using detail::kMR;
using detail::kNC;

// ---------------------------------------------------------------------------
// int8 activation prep. Quantization is data preparation, not kernel work: it
// runs identically under every dispatch tier, so it may use whatever SIMD the
// translation unit was compiled with. The vector and scalar paths round
// identically — vcvtps2dq and lrintf both round to nearest-even under the
// default FP environment — so results never depend on which path executed.
// ---------------------------------------------------------------------------

/// Running min/max of a row against 0 (the quantization range must include 0
/// so zero activations map exactly onto the zero point). Min/max reductions
/// are order-independent, so the vector lane split changes nothing.
void row_min_max(const float* row, std::int64_t k, std::int64_t stride,
                 float& lo_out, float& hi_out) {
  float lo = 0.0F;
  float hi = 0.0F;
  std::int64_t kk = 0;
  if (stride == 1) {
#if defined(__AVX512F__)
    __m512 wlo = _mm512_setzero_ps();
    __m512 whi = _mm512_setzero_ps();
    for (; kk + 16 <= k; kk += 16) {
      const __m512 v = _mm512_loadu_ps(row + kk);
      wlo = _mm512_min_ps(wlo, v);
      whi = _mm512_max_ps(whi, v);
    }
    lo = std::min(lo, _mm512_reduce_min_ps(wlo));
    hi = std::max(hi, _mm512_reduce_max_ps(whi));
#elif defined(__AVX2__) && defined(__FMA__)
    __m256 vlo = _mm256_setzero_ps();
    __m256 vhi = _mm256_setzero_ps();
    for (; kk + 8 <= k; kk += 8) {
      const __m256 v = _mm256_loadu_ps(row + kk);
      vlo = _mm256_min_ps(vlo, v);
      vhi = _mm256_max_ps(vhi, v);
    }
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, vlo);
    for (int t = 0; t < 8; ++t) lo = std::min(lo, tmp[t]);
    _mm256_store_ps(tmp, vhi);
    for (int t = 0; t < 8; ++t) hi = std::max(hi, tmp[t]);
#endif
    for (; kk < k; ++kk) {
      lo = std::min(lo, row[kk]);
      hi = std::max(hi, row[kk]);
    }
  } else {
    for (; kk < k; ++kk) {
      const float v = row[kk * stride];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  lo_out = lo;
  hi_out = hi;
}

/// Quantize one row to uint8 in [0, 127]: q = clamp(zp + round(x * inv)).
/// The product is bounded by [-127, 127] by construction of inv, so the
/// int32 arithmetic cannot overflow.
void quantize_row_u8(const float* src, std::int64_t stride, std::uint8_t* dst,
                     std::int64_t k, float inv, std::int32_t zp) {
  std::int64_t kk = 0;
  if (stride == 1) {
#if defined(__AVX512F__)
    // vcvtps2dq rounds to nearest-even exactly like lrintf, and vpmovdb is a
    // plain truncation of values already clamped to [0, 127], so this path is
    // bitwise-identical to the 8-wide and scalar ones below.
    const __m512 winv = _mm512_set1_ps(inv);
    const __m512i wzp = _mm512_set1_epi32(zp);
    const __m512i wmax = _mm512_set1_epi32(127);
    const __m512i wzero = _mm512_setzero_si512();
    for (; kk + 16 <= k; kk += 16) {
      const __m512 x = _mm512_loadu_ps(src + kk);
      __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(x, winv));
      q = _mm512_add_epi32(q, wzp);
      q = _mm512_min_epi32(_mm512_max_epi32(q, wzero), wmax);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + kk),
                       _mm512_cvtepi32_epi8(q));
    }
#elif defined(__AVX2__) && defined(__FMA__)
    const __m256 vinv = _mm256_set1_ps(inv);
    const __m256i vzp = _mm256_set1_epi32(zp);
    const __m256i vmax = _mm256_set1_epi32(127);
    const __m256i vzero = _mm256_setzero_si256();
    for (; kk + 8 <= k; kk += 8) {
      const __m256 x = _mm256_loadu_ps(src + kk);
      __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(x, vinv));
      q = _mm256_add_epi32(q, vzp);
      q = _mm256_min_epi32(_mm256_max_epi32(q, vzero), vmax);
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                          _mm256_extracti128_si256(q, 1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + kk),
                       _mm_packus_epi16(p16, p16));
    }
#endif
    for (; kk < k; ++kk) {
      const long q = zp + std::lrintf(src[kk] * inv);
      dst[kk] = static_cast<std::uint8_t>(std::clamp<long>(q, 0, 127));
    }
  } else {
    for (; kk < k; ++kk) {
      const long q = zp + std::lrintf(src[kk * stride] * inv);
      dst[kk] = static_cast<std::uint8_t>(std::clamp<long>(q, 0, 127));
    }
  }
}

/// Quantization parameters of one activation row with range [lo, hi] (which
/// always holds 0): scale = (hi - lo) / 127 and q = clamp(zp + round(x * inv)).
/// An all-zero row gets scale 0, inv 0 and zp 0.
void row_quant_params(float lo, float hi, float& scale, float& inv, std::int32_t& zp) {
  scale = 0.0F;
  inv = 0.0F;
  zp = 0;
  if (hi != lo) {
    scale = (hi - lo) / 127.0F;
    inv = 127.0F / (hi - lo);
    zp = static_cast<std::int32_t>(std::clamp<long>(std::lrintf(-lo * inv), 0, 127));
  }
}

// A vector of adjacent output pixels for the int8 patch quantizer: one lane
// per A row, min/max and quantization exactly as the per-row code does them
// (vcvtps2dq rounds to nearest-even like lrintf), and a masked store of one
// 4-byte k-quad word per lane.
#if defined(__AVX512F__)
#define ULLSNN_PIXEL_LANES 1
struct PixelLanes {
  static constexpr std::int64_t kCount = 16;
  using Floats = __m512;
  using Ints = __m512i;
  using Mask = __mmask16;
  static Floats load(const float* p) { return _mm512_loadu_ps(p); }
  static Ints load(const std::int32_t* p) { return _mm512_loadu_si512(p); }
  static void store(float* p, Floats v) { _mm512_storeu_ps(p, v); }
  static Floats zero() { return _mm512_setzero_ps(); }
  static Floats min(Floats a, Floats b) { return _mm512_min_ps(a, b); }
  static Floats max(Floats a, Floats b) { return _mm512_max_ps(a, b); }
  static Ints quantize(Floats x, Floats inv, Ints zp) {
    const Ints q = _mm512_add_epi32(_mm512_cvtps_epi32(_mm512_mul_ps(x, inv)), zp);
    return _mm512_min_epi32(_mm512_max_epi32(q, _mm512_setzero_si512()),
                            _mm512_set1_epi32(127));
  }
  /// w | q << (8 * kByte): q's lanes become byte kByte of each word.
  template <int kByte>
  static Ints put_byte(Ints w, Ints q) {
    return _mm512_or_si512(w, _mm512_slli_epi32(q, 8 * kByte));
  }
  static Mask lanes(std::int64_t first, std::int64_t count) {
    return static_cast<Mask>(((1U << count) - 1U) << first);
  }
  static void store(std::uint8_t* p, Mask m, Ints w) { _mm512_mask_storeu_epi32(p, m, w); }
};
#elif defined(__AVX2__) && defined(__FMA__)
#define ULLSNN_PIXEL_LANES 1
struct PixelLanes {
  static constexpr std::int64_t kCount = 8;
  using Floats = __m256;
  using Ints = __m256i;
  using Mask = __m256i;
  static Floats load(const float* p) { return _mm256_loadu_ps(p); }
  static Ints load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(float* p, Floats v) { _mm256_storeu_ps(p, v); }
  static Floats zero() { return _mm256_setzero_ps(); }
  static Floats min(Floats a, Floats b) { return _mm256_min_ps(a, b); }
  static Floats max(Floats a, Floats b) { return _mm256_max_ps(a, b); }
  static Ints quantize(Floats x, Floats inv, Ints zp) {
    const Ints q = _mm256_add_epi32(_mm256_cvtps_epi32(_mm256_mul_ps(x, inv)), zp);
    return _mm256_min_epi32(_mm256_max_epi32(q, _mm256_setzero_si256()),
                            _mm256_set1_epi32(127));
  }
  template <int kByte>
  static Ints put_byte(Ints w, Ints q) {
    return _mm256_or_si256(w, _mm256_slli_epi32(q, 8 * kByte));
  }
  static Mask lanes(std::int64_t first, std::int64_t count) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const auto lo = static_cast<int>(first);
    const auto hi = static_cast<int>(first + count);
    return _mm256_and_si256(_mm256_cmpgt_epi32(lane, _mm256_set1_epi32(lo - 1)),
                            _mm256_cmpgt_epi32(_mm256_set1_epi32(hi), lane));
  }
  static void store(std::uint8_t* p, Mask m, Ints w) {
    _mm256_maskstore_epi32(reinterpret_cast<int*>(p), m, w);
  }
};
#else
#define ULLSNN_PIXEL_LANES 0
#endif

/// Front slack of a Rows panel buffer: a masked store addresses lane 0 of its
/// vector, up to 15 words ahead of the first lane it writes.
constexpr std::int64_t kPanelSlack = 64;

#if ULLSNN_PIXEL_LANES
/// Quantizes A rows [r0, r0 + kCount) of `a` into `panels` (Rows layout, kq
/// k-quads), where those rows are adjacent output pixels of one output row
/// at stride 1: column kk of all of them is then one contiguous run of the
/// image, so both passes (range, then quantize) are vector loads rather than
/// a per-row gather. Each lane computes its row's range, parameters and bytes
/// exactly as Rows::quantize does for that row.
void quantize_pixels(const PatchView& a, std::int64_t r0, std::int64_t k,
                     std::int64_t kq, std::uint8_t* panels, float* scale,
                     std::int32_t* zero_point) {
  using V = PixelLanes;
  constexpr std::int64_t kLanes = V::kCount;
  const float* base = a.row(r0);
  const std::int64_t* off = a.offsets;
  // Two accumulator pairs halve the min/max dependency chain.
  V::Floats lo0 = V::zero();
  V::Floats hi0 = V::zero();
  V::Floats lo1 = V::zero();
  V::Floats hi1 = V::zero();
  std::int64_t kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const V::Floats x0 = V::load(base + off[kk]);
    const V::Floats x1 = V::load(base + off[kk + 1]);
    lo0 = V::min(lo0, x0);
    hi0 = V::max(hi0, x0);
    lo1 = V::min(lo1, x1);
    hi1 = V::max(hi1, x1);
  }
  if (kk < k) {
    const V::Floats x0 = V::load(base + off[kk]);
    lo0 = V::min(lo0, x0);
    hi0 = V::max(hi0, x0);
  }
  alignas(64) float lo[kLanes] = {};
  alignas(64) float hi[kLanes] = {};
  alignas(64) float inv[kLanes] = {};
  alignas(64) std::int32_t zp[kLanes] = {};
  V::store(lo, V::min(lo0, lo1));
  V::store(hi, V::max(hi0, hi1));
  for (std::int64_t p = 0; p < kLanes; ++p) {
    row_quant_params(lo[p], hi[p], scale[r0 + p], inv[p], zp[p]);
    zero_point[r0 + p] = zp[p];
  }
  // Lanes of one panel hold consecutive slots of every k-quad, so each panel
  // the rows touch takes one masked store per quad.
  struct Segment {
    std::uint8_t* dst;  // lane 0's address in quad 0
    V::Mask mask;
  };
  Segment segments[kLanes / kMR + 2] = {};
  std::int64_t count = 0;
  for (std::int64_t p = 0; p < kLanes;) {
    const std::int64_t r = r0 + p;
    const std::int64_t n = std::min(kMR - r % kMR, kLanes - p);
    segments[count++] = {panels + (r / kMR) * kq * kMR * 4 + (r % kMR - p) * 4,
                         V::lanes(p, n)};
    p += n;
  }
  const V::Floats vinv = V::load(inv);
  const V::Ints vzp = V::load(zp);
  const auto column = [&](std::int64_t c) {
    return V::quantize(V::load(base + off[c]), vinv, vzp);
  };
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int64_t c = q * 4;
    V::Ints w = column(c);
    if (c + 4 <= k) {
      w = V::put_byte<1>(w, column(c + 1));
      w = V::put_byte<2>(w, column(c + 2));
      w = V::put_byte<3>(w, column(c + 3));
    } else {  // the last, partial quad: missing bytes stay 0
      if (c + 1 < k) w = V::put_byte<1>(w, column(c + 1));
      if (c + 2 < k) w = V::put_byte<2>(w, column(c + 2));
    }
    for (std::int64_t s = 0; s < count; ++s) {
      V::store(segments[s].dst + q * kMR * 4, segments[s].mask, w);
    }
  }
}
#endif

}  // namespace

QuantizedPackedB::Rows::Rows(std::int64_t m, std::int64_t k, Arena& arena)
    : scale(arena.alloc_floats(static_cast<std::size_t>(m))),
      zero_point(arena.alloc_i32(static_cast<std::size_t>(m))),
      panels_(arena.alloc_u8(static_cast<std::size_t>(
                  kPanelSlack + ceil_div(m, kMR) * ceil_div(k, 4) * kMR * 4)) +
              kPanelSlack),
      bytes_(arena.alloc_u8(static_cast<std::size_t>(ceil_div(k, 4) * 4))),
      m_(m),
      k_(k),
      kq_(ceil_div(k, 4)) {
  // The kernel reads whole panels and whole k-quads; the bytes past row m and
  // past k must be 0 (padded B lanes are 0 too, so they add nothing).
  std::memset(bytes_, 0, static_cast<std::size_t>(kq_ * 4));
  if (m % kMR != 0) {
    std::memset(panels_ + (m / kMR) * kq_ * kMR * 4, 0,
                static_cast<std::size_t>(kq_ * kMR * 4));
  }
}

const std::uint8_t* QuantizedPackedB::Rows::panel(std::int64_t p,
                                                  std::int64_t q0) const {
  return panels_ + (p * kq_ + q0) * kMR * 4;
}

void QuantizedPackedB::Rows::quantize(std::int64_t i, const float* row,
                                      std::int64_t stride) {
  // Per-row asymmetric activation quantization to [0, 127]: the range always
  // includes 0 so zeros (the overwhelmingly common spike value) map exactly
  // to the zero point, and the 7-bit cap keeps the AVX2 maddubs pair sums
  // below i16 saturation. For binary spike rows the quantization is exact.
  float lo = 0.0F;
  float hi = 0.0F;
  row_min_max(row, k_, stride, lo, hi);
  float inv = 0.0F;
  row_quant_params(lo, hi, scale[i], inv, zero_point[i]);
  quantize_row_u8(row, stride, bytes_, k_, inv, zero_point[i]);
  // Deal the row's k-quads out to its slot in every quad of its panel.
  std::uint8_t* dst = panels_ + (i / kMR) * kq_ * kMR * 4 + (i % kMR) * 4;
  for (std::int64_t q = 0; q < kq_; ++q) {
    std::memcpy(dst + q * kMR * 4, bytes_ + q * 4, 4);
  }
}

void QuantizedPackedB::Rows::quantize(const PatchView& a, Arena& arena) {
  float* field = arena.alloc_floats(static_cast<std::size_t>(k_));
  const std::int64_t* off = a.offsets;
  for (std::int64_t i = 0; i < m_;) {
#if ULLSNN_PIXEL_LANES
    if (a.stride == 1 && i % a.ow + PixelLanes::kCount <= a.ow) {
      quantize_pixels(a, i, k_, kq_, panels_, scale, zero_point);
      i += PixelLanes::kCount;
      continue;
    }
#endif
    // One receptive field through an L1-resident row: the values im2row
    // would materialise, so the same quantized bytes.
    const float* base = a.row(i);
    std::int64_t kk = 0;
    if (a.kernel == 3) {
      // Each kx run is 3 consecutive floats: copy it as 4 and let the next
      // run overwrite the extra one. The extra read stays at or below the
      // field's last run start, which the scalar tail copies exactly.
      for (; kk + 3 < k_; kk += 3) {
        std::memcpy(field + kk, base + off[kk], 4 * sizeof(float));
      }
    }
    for (; kk < k_; ++kk) field[kk] = base[off[kk]];
    quantize(i, field, 1);
    ++i;
  }
}

namespace {

/// Pack rows [ic, ic+mc) x cols [pc, pc+kc) of A into `packed`: ceil(mc/MR)
/// panels of [kc x MR] each, zero-padding the ragged last panel.
void pack_a_block(MatView a, std::int64_t ic, std::int64_t mc, std::int64_t pc,
                  std::int64_t kc, float* packed) {
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
    float* dst = packed + (i0 / kMR) * kc * kMR;
    const std::int64_t ir = std::min(kMR, mc - i0);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a.data + (ic + i0) * a.rs + (pc + kk) * a.cs;
      std::int64_t i = 0;
      for (; i < ir; ++i) dst[kk * kMR + i] = src[i * a.rs];
      for (; i < kMR; ++i) dst[kk * kMR + i] = 0.0F;
    }
  }
}

/// pack_a_block over the implicit im2row matrix of `a`: row r's column kk is
/// a.row(r)[a.offsets[kk]], so a panel is six gathers per k step
/// with no bounds checks (the image's zero border stands in for padding).
/// The packed values and layout are exactly pack_a_block's over im2row.
void pack_patch_block(PatchView a, std::int64_t ic, std::int64_t mc, std::int64_t pc,
                      std::int64_t kc, float* packed) {
  const std::int64_t* off = a.offsets + pc;
  for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
    float* dst = packed + (i0 / kMR) * kc * kMR;
    const std::int64_t ir = std::min(kMR, mc - i0);
    const float* base[kMR];
    for (std::int64_t i = 0; i < ir; ++i) base[i] = a.row(ic + i0 + i);
    if (ir == kMR) {  // constant trip count: the six gathers unroll
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const std::int64_t o = off[kk];
        for (std::int64_t i = 0; i < kMR; ++i) dst[kk * kMR + i] = base[i][o];
      }
    } else {
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const std::int64_t o = off[kk];
        std::int64_t i = 0;
        for (; i < ir; ++i) dst[kk * kMR + i] = base[i][o];
        for (; i < kMR; ++i) dst[kk * kMR + i] = 0.0F;
      }
    }
  }
}

/// The blocked loop behind every fp32 gemm_packed form: for each packed B
/// block and MC-row block of A, `pack_a(ic, mc, pc, kc, dst)` writes the A
/// panels into `dst` and the micro-kernel sweeps them against B's panels.
template <typename Block, typename PackA>
void gemm_blocked(const std::vector<Block>& blocks, std::int64_t packed_nr, float* c,
                  std::int64_t m, std::int64_t n, bool accumulate,
                  const PackA& pack_a) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  if (m == 0 || n == 0) return;
  const KernelPlan& plan = kernel_plan();
  if (packed_nr != plan.fp32_nr) {
    throw std::logic_error(
        "gemm_packed: PackedB was packed under a different kernel plan; "
        "re-pack after switching ISA");
  }
  const auto kernel = reinterpret_cast<detail::MicroKernelFp32>(plan.fp32);
  const std::int64_t nr = plan.fp32_nr;
  Arena& arena = thread_arena();
  for (const Block& block : blocks) {
    for (std::int64_t ic = 0; ic < m; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m - ic);
      ArenaScope scope(arena);
      float* ap =
          arena.alloc_floats(static_cast<std::size_t>(ceil_div(mc, kMR) * block.kc * kMR));
      pack_a(ic, mc, block.pc, block.kc, ap);
      for (std::int64_t j0 = 0; j0 < block.nc; j0 += nr) {
        const float* bp = block.data + (j0 / nr) * block.kc * nr;
        const std::int64_t cols = std::min(nr, block.nc - j0);
        for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
          kernel(ap + (i0 / kMR) * block.kc * kMR, bp,
                 c + (ic + i0) * n + block.jc + j0, block.kc, n,
                 std::min(kMR, mc - i0), cols);
        }
      }
    }
  }
}

}  // namespace

std::size_t PackedB::packed_floats(std::int64_t k, std::int64_t n) {
  // Every K block covers the whole N extent in ceil(nc/NR) zero-padded
  // panels, so the total is k rows of n rounded up per N block.
  const std::int64_t nr = kernel_plan().fp32_nr;
  std::int64_t padded_n = 0;
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    padded_n += ceil_div(std::min(kNC, n - jc), nr) * nr;
  }
  return static_cast<std::size_t>(k * padded_n);
}

bool PackedB::packed_for_active_plan() const {
  return nr_ == kernel_plan().fp32_nr;
}

void PackedB::pack(MatView b, std::int64_t k, std::int64_t n, Arena& arena) {
  pack(b, k, n, arena.alloc_floats(packed_floats(k, n)));
}

namespace {

/// Lays B's panels out in `storage` block by block, in the order gemm_blocked
/// walks them, and has `fill(dst, pc, kc, j, jr)` write each [kc x nr] panel:
/// rows [pc, pc+kc) of columns [j, j+jr), zero past column jr.
template <typename Block, typename Fill>
void pack_panels(std::int64_t k, std::int64_t n, std::int64_t nr, float* storage,
                 std::vector<Block>& blocks, const Fill& fill) {
  blocks.clear();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      float* data = storage;
      storage += ceil_div(nc, nr) * kc * nr;
      for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
        fill(data + (j0 / nr) * kc * nr, pc, kc, jc + j0, std::min(nr, nc - j0));
      }
      blocks.push_back({data, pc, kc, jc, nc});
    }
  }
}

}  // namespace

void PackedB::pack(MatView b, std::int64_t k, std::int64_t n, float* storage) {
  k_ = k;
  n_ = n;
  nr_ = kernel_plan().fp32_nr;
  const std::int64_t nr = nr_;
  pack_panels(k, n, nr, storage, blocks_,
              [&](float* dst, std::int64_t pc, std::int64_t kc, std::int64_t j,
                  std::int64_t jr) {
                if (b.cs == 1) {
                  // Contiguous source rows: bulk copy + zero pad.
                  for (std::int64_t kk = 0; kk < kc; ++kk) {
                    const float* src = b.data + (pc + kk) * b.rs + j;
                    std::memcpy(dst + kk * nr, src,
                                static_cast<std::size_t>(jr) * sizeof(float));
                    for (std::int64_t jj = jr; jj < nr; ++jj) dst[kk * nr + jj] = 0.0F;
                  }
                } else {
                  for (std::int64_t kk = 0; kk < kc; ++kk) {
                    const float* src = b.data + (pc + kk) * b.rs + j * b.cs;
                    std::int64_t jj = 0;
                    for (; jj < jr; ++jj) dst[kk * nr + jj] = src[jj * b.cs];
                    for (; jj < nr; ++jj) dst[kk * nr + jj] = 0.0F;
                  }
                }
              });
}

void PackedB::pack(const PatchView& a, std::int64_t k, std::int64_t n, Arena& arena) {
  k_ = k;
  n_ = n;
  nr_ = kernel_plan().fp32_nr;
  const std::int64_t nr = nr_;
  pack_panels(
      k, n, nr, arena.alloc_floats(packed_floats(k, n)), blocks_,
      [&](float* dst, std::int64_t pc, std::int64_t kc, std::int64_t j,
          std::int64_t jr) {
        // Column p of B is output pixel p. Pixels of one output row sit
        // `stride` apart in every image row, so the panel's columns split
        // into runs, one per output row they touch, and each run is copied
        // per k step as one (strided) segment of an image row.
        const std::int64_t* off = a.offsets + pc;
        for (std::int64_t jj = 0; jj < jr;) {
          const std::int64_t p = j + jj;
          const std::int64_t len = std::min(a.ow - p % a.ow, jr - jj);
          const float* base = a.row(p);
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            const float* src = base + off[kk];
            float* out = dst + kk * nr + jj;
            if (a.stride == 1) {
              std::memcpy(out, src, static_cast<std::size_t>(len) * sizeof(float));
            } else {
              for (std::int64_t t = 0; t < len; ++t) out[t] = src[t * a.stride];
            }
          }
          jj += len;
        }
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          for (std::int64_t jj = jr; jj < nr; ++jj) dst[kk * nr + jj] = 0.0F;
        }
      });
}

void gemm_packed(MatView a, const PackedB& b, float* c, std::int64_t m,
                 bool accumulate) {
  gemm_blocked(b.blocks_, b.nr_, c, m, b.n_, accumulate,
               [&](std::int64_t ic, std::int64_t mc, std::int64_t pc, std::int64_t kc,
                   float* dst) { pack_a_block(a, ic, mc, pc, kc, dst); });
}

void gemm_packed(PatchView a, const PackedB& b, float* c, std::int64_t m,
                 bool accumulate) {
  gemm_blocked(b.blocks_, b.nr_, c, m, b.n_, accumulate,
               [&](std::int64_t ic, std::int64_t mc, std::int64_t pc, std::int64_t kc,
                   float* dst) { pack_patch_block(a, ic, mc, pc, kc, dst); });
}

std::int64_t gemm_micro_tiles(std::int64_t m, std::int64_t n) {
  return ceil_div(m, kMR) * ceil_div(n, kernel_plan().fp32_nr);
}

void gemm(MatView a, MatView b, float* c, std::int64_t m, std::int64_t k,
          std::int64_t n, bool accumulate) {
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  PackedB packed;
  packed.pack(b, k, n, arena);
  gemm_packed(a, packed, c, m, accumulate);
}

std::int64_t spmm_row_compressed(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k, std::int64_t n,
                                 bool accumulate) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  std::int64_t* idx = arena.alloc_indices(static_cast<std::size_t>(k));
  std::int64_t total_nonzeros = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    // Row compression: one branchy pass gathers the spike positions, then the
    // accumulation loop below runs branch-free and vectorized over N.
    std::int64_t count = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (ai[kk] != 0.0F) idx[count++] = kk;
    }
    total_nonzeros += count;
    float* ci = c + i * n;
    for (std::int64_t t = 0; t < count; ++t) {
      const float v = ai[idx[t]];
      const float* bk = b + idx[t] * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += v * bk[j];
    }
  }
  return total_nonzeros;
}

const char* to_string(Precision precision) {
  switch (precision) {
    case Precision::kFp32: return "fp32";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

QuantizedWeight quantize_weight_per_row(const float* w, std::int64_t rows,
                                        std::int64_t cols) {
  QuantizedWeight q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows * cols));
  q.scales.resize(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* src = w + i * cols;
    float max_abs = 0.0F;
    for (std::int64_t kk = 0; kk < cols; ++kk) {
      max_abs = std::max(max_abs, std::fabs(src[kk]));
    }
    // An all-zero channel gets scale 1 so the dequant product stays finite.
    const float scale = max_abs > 0.0F ? max_abs / 127.0F : 1.0F;
    const float inv = max_abs > 0.0F ? 127.0F / max_abs : 0.0F;
    q.scales[static_cast<std::size_t>(i)] = scale;
    std::int8_t* dst = q.data.data() + i * cols;
    for (std::int64_t kk = 0; kk < cols; ++kk) {
      const long v = std::lrintf(src[kk] * inv);
      dst[kk] = static_cast<std::int8_t>(std::clamp<long>(v, -127, 127));
    }
  }
  return q;
}

void QuantizedPackedB::clear() {
  blocks_.clear();
  panels_.clear();
  colsums_.clear();
  scales_.clear();
  k_ = 0;
  n_ = 0;
}

void QuantizedPackedB::pack(const QuantizedWeight& w) {
  clear();
  k_ = w.cols;
  n_ = w.rows;
  scales_ = w.scales;
  if (k_ == 0 || n_ == 0) return;
  // First pass: total panel/colsum storage, so the vectors allocate once
  // (zero-filled — padding lanes are never written again).
  std::size_t panel_bytes = 0;
  std::size_t colsum_count = 0;
  for (std::int64_t jc = 0; jc < n_; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n_ - jc);
    for (std::int64_t pc = 0; pc < k_; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k_ - pc);
      const std::int64_t strips = ceil_div(nc, kInt8Nr);
      panel_bytes += static_cast<std::size_t>(strips * ceil_div(kc, 4) * kInt8Nr * 4);
      colsum_count += static_cast<std::size_t>(strips * kInt8Nr);
    }
  }
  panels_.assign(panel_bytes, 0);
  colsums_.assign(colsum_count, 0);
  std::size_t data_off = 0;
  std::size_t colsum_off = 0;
  for (std::int64_t jc = 0; jc < n_; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n_ - jc);
    for (std::int64_t pc = 0; pc < k_; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k_ - pc);
      const std::int64_t kq = ceil_div(kc, 4);
      const std::int64_t strips = ceil_div(nc, kInt8Nr);
      Block block{pc, kc, jc, nc, data_off, colsum_off};
      std::int8_t* data = panels_.data() + data_off;
      std::int32_t* csum = colsums_.data() + colsum_off;
      for (std::int64_t j0 = 0; j0 < nc; j0 += kInt8Nr) {
        std::int8_t* strip = data + (j0 / kInt8Nr) * kq * kInt8Nr * 4;
        const std::int64_t jr = std::min(kInt8Nr, nc - j0);
        for (std::int64_t j = 0; j < jr; ++j) {
          // Column jc+j0+j of B is row jc+j0+j of W — contiguous in k.
          const std::int8_t* src = w.data.data() + (jc + j0 + j) * k_ + pc;
          std::int32_t sum = 0;
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            strip[(kk / 4) * kInt8Nr * 4 + j * 4 + (kk & 3)] = src[kk];
            sum += src[kk];
          }
          csum[j0 + j] = sum;
        }
      }
      data_off += static_cast<std::size_t>(strips * kq * kInt8Nr * 4);
      colsum_off += static_cast<std::size_t>(strips * kInt8Nr);
      blocks_.push_back(block);
    }
  }
}

void gemm_packed_int8(MatView a, const QuantizedPackedB& b, float* c,
                      std::int64_t m, bool accumulate) {
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  QuantizedPackedB::Rows q(m, b.k_, arena);
  for (std::int64_t i = 0; i < m; ++i) q.quantize(i, a.data + i * a.rs, a.cs);
  b.multiply(q, c, m, accumulate);
}

void gemm_packed_int8(PatchView a, const QuantizedPackedB& b, float* c,
                      std::int64_t m, bool accumulate) {
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  QuantizedPackedB::Rows q(m, b.k_, arena);
  q.quantize(a, arena);
  b.multiply(q, c, m, accumulate);
}

void QuantizedPackedB::multiply(const Rows& q, float* c, std::int64_t m,
                                bool accumulate) const {
  const std::int64_t n = n_;
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  if (m == 0 || n == 0) return;
  ULLSNN_COUNTER_ADD("kernels.int8_dispatch", 1);
  const auto kernel = reinterpret_cast<detail::MicroKernelInt8>(kernel_plan().int8);
  for (const Block& block : blocks_) {
    const std::int64_t kq = ceil_div(block.kc, 4);
    const std::int32_t* csum_base = colsums_.data() + block.colsum_off;
    // Every block starts on a whole k-quad of the already-packed A panels.
    static_assert(kKC % 4 == 0);
    const std::int64_t q0 = block.pc / 4;
    for (std::int64_t ic = 0; ic < m; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m - ic);
      alignas(64) std::int32_t acc[kMR * kInt8Nr];
      for (std::int64_t j0 = 0; j0 < block.nc; j0 += kInt8Nr) {
        const std::int8_t* bp =
            panels_.data() + block.data_off + (j0 / kInt8Nr) * kq * kInt8Nr * 4;
        const std::int32_t* csum = csum_base + j0;
        const float* sb = scales_.data() + block.jc + j0;
        const std::int64_t cols = std::min(kInt8Nr, block.nc - j0);
        for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
          const std::int64_t rows = std::min(kMR, mc - i0);
          kernel(q.panel((ic + i0) / kMR, q0), bp, acc, kq);
          // Tier-shared epilogue: zero-point correction + fused dequant.
          // |acc - zp*colsum| < 2^24 (kc <= 256), so the int -> float
          // conversion is exact and results match bitwise across tiers. The
          // vector path performs the identical elementwise operations
          // (mullo/sub exact in int32, cvtdq2ps exact below 2^24, vfmadd ==
          // fmaf), so it is bitwise-equal to the scalar tail as well.
          for (std::int64_t i = 0; i < rows; ++i) {
            const std::int64_t row = ic + i0 + i;
            const float sa = q.scale[row];
            const std::int32_t zp = q.zero_point[row];
            float* ci = c + row * n + block.jc + j0;
            const std::int32_t* acc_row = acc + i * kInt8Nr;
            std::int64_t j = 0;
#if defined(__AVX2__) && defined(__FMA__)
            if (cols == kInt8Nr) {
              const __m256i vzp = _mm256_set1_epi32(zp);
              const __m256 vsa = _mm256_set1_ps(sa);
              for (; j < kInt8Nr; j += 8) {
                const __m256i av = _mm256_load_si256(
                    reinterpret_cast<const __m256i*>(acc_row + j));
                const __m256i cs = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(csum + j));
                const __m256i corr =
                    _mm256_sub_epi32(av, _mm256_mullo_epi32(vzp, cs));
                const __m256 scale = _mm256_mul_ps(vsa, _mm256_loadu_ps(sb + j));
                const __m256 cv = _mm256_loadu_ps(ci + j);
                _mm256_storeu_ps(
                    ci + j,
                    _mm256_fmadd_ps(_mm256_cvtepi32_ps(corr), scale, cv));
              }
            }
#endif
            for (; j < cols; ++j) {
              const std::int32_t corr = acc_row[j] - zp * csum[j];
              const float scale = sa * sb[j];
              ci[j] = std::fmaf(static_cast<float>(corr), scale, ci[j]);
            }
          }
        }
      }
    }
  }
}

}  // namespace ullsnn
