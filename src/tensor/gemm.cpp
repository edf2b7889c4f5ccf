#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if (defined(__AVX2__) && defined(__FMA__)) || defined(__AVX512F__)
#include <immintrin.h>
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

/// Pack rows [ic, ic+mc) x cols [pc, pc+kc) of A into ceil(mc/MR) panels of
/// [kc x MR] each, zero-padding the ragged last panel.
float* pack_a_block(MatView a, std::int64_t ic, std::int64_t mc, std::int64_t pc,
                    std::int64_t kc, Arena& arena) {
  const std::int64_t panels = ceil_div(mc, kMR);
  float* packed = arena.alloc_floats(static_cast<std::size_t>(panels * kc * kMR));
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
  return packed;
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

void PackedB::pack(MatView b, std::int64_t k, std::int64_t n, float* storage) {
  k_ = k;
  n_ = n;
  nr_ = kernel_plan().fp32_nr;
  const std::int64_t nr = nr_;
  blocks_.clear();
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      const std::int64_t panels = ceil_div(nc, nr);
      float* data = storage;
      storage += panels * kc * nr;
      for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
        float* dst = data + (j0 / nr) * kc * nr;
        const std::int64_t jr = std::min(nr, nc - j0);
        if (b.cs == 1) {
          // Contiguous source rows: bulk copy + zero pad.
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            const float* src = b.data + (pc + kk) * b.rs + (jc + j0);
            std::memcpy(dst + kk * nr, src, static_cast<std::size_t>(jr) * sizeof(float));
            for (std::int64_t j = jr; j < nr; ++j) dst[kk * nr + j] = 0.0F;
          }
        } else {
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            const float* src = b.data + (pc + kk) * b.rs + (jc + j0) * b.cs;
            std::int64_t j = 0;
            for (; j < jr; ++j) dst[kk * nr + j] = src[j * b.cs];
            for (; j < nr; ++j) dst[kk * nr + j] = 0.0F;
          }
        }
      }
      blocks_.push_back({data, pc, kc, jc, nc});
    }
  }
}

void gemm_packed(MatView a, const PackedB& b, float* c, std::int64_t m,
                 bool accumulate) {
  const std::int64_t n = b.n_;
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  if (m == 0 || n == 0) return;
  const KernelPlan& plan = kernel_plan();
  if (b.nr_ != plan.fp32_nr) {
    throw std::logic_error(
        "gemm_packed: PackedB was packed under a different kernel plan; "
        "re-pack after switching ISA");
  }
  const auto kernel = reinterpret_cast<detail::MicroKernelFp32>(plan.fp32);
  const std::int64_t nr = plan.fp32_nr;
  Arena& arena = thread_arena();
  for (const PackedB::Block& block : b.blocks_) {
    for (std::int64_t ic = 0; ic < m; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m - ic);
      ArenaScope scope(arena);
      const float* ap = pack_a_block(a, ic, mc, block.pc, block.kc, arena);
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
  const std::int64_t n = b.n_;
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  if (m == 0 || n == 0) return;
  ULLSNN_COUNTER_ADD("kernels.int8_dispatch", 1);
  const auto kernel = reinterpret_cast<detail::MicroKernelInt8>(kernel_plan().int8);
  Arena& arena = thread_arena();
  ArenaScope outer(arena);
  // Per-row asymmetric activation quantization to [0, 127]: the range always
  // includes 0 so zeros (the overwhelmingly common spike value) map exactly
  // to the zero point, and the 7-bit cap keeps the AVX2 maddubs pair sums
  // below i16 saturation. For binary spike rows the quantization is exact.
  float* a_scale = arena.alloc_floats(static_cast<std::size_t>(m));
  float* a_inv = arena.alloc_floats(static_cast<std::size_t>(m));
  std::int32_t* a_zp = arena.alloc_i32(static_cast<std::size_t>(m));
  const std::int64_t k = b.k_;
  // Quantize every A row exactly once into a contiguous uint8 image; the
  // per-block packing below is then pure byte movement.
  std::uint8_t* aq = arena.alloc_u8(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = a.data + i * a.rs;
    float lo = 0.0F;
    float hi = 0.0F;
    row_min_max(row, k, a.cs, lo, hi);
    if (hi == lo) {  // all-zero row
      a_scale[i] = 0.0F;
      a_inv[i] = 0.0F;
      a_zp[i] = 0;
    } else {
      a_scale[i] = (hi - lo) / 127.0F;
      a_inv[i] = 127.0F / (hi - lo);
      a_zp[i] = static_cast<std::int32_t>(
          std::clamp<long>(std::lrintf(-lo * a_inv[i]), 0, 127));
    }
    quantize_row_u8(row, a.cs, aq + i * k, k, a_inv[i], a_zp[i]);
  }
  for (const QuantizedPackedB::Block& block : b.blocks_) {
    const std::int64_t kq = ceil_div(block.kc, 4);
    const std::int32_t* csum_base = b.colsums_.data() + block.colsum_off;
    for (std::int64_t ic = 0; ic < m; ic += kMC) {
      const std::int64_t mc = std::min(kMC, m - ic);
      ArenaScope scope(arena);
      // Interleave the quantized A block into k-quad panels: one 4-byte word
      // per (row, k-quad). Padding bytes stay 0: padded B lanes are 0 too, so
      // padded products contribute nothing to accumulator or colsum.
      const std::int64_t a_panels = ceil_div(mc, kMR);
      const std::size_t ap_bytes = static_cast<std::size_t>(a_panels * kq * kMR * 4);
      std::uint8_t* ap = arena.alloc_u8(ap_bytes);
      std::memset(ap, 0, ap_bytes);
      const std::int64_t kq_full = block.kc / 4;
      for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
        std::uint8_t* dst = ap + (i0 / kMR) * kq * kMR * 4;
        const std::int64_t ir = std::min(kMR, mc - i0);
        for (std::int64_t i = 0; i < ir; ++i) {
          const std::uint8_t* src = aq + (ic + i0 + i) * k + block.pc;
          std::uint8_t* d = dst + i * 4;
          for (std::int64_t q4 = 0; q4 < kq_full; ++q4) {
            std::memcpy(d + q4 * kMR * 4, src + q4 * 4, 4);
          }
          for (std::int64_t kk = kq_full * 4; kk < block.kc; ++kk) {
            d[(kk / 4) * kMR * 4 + (kk & 3)] = src[kk];
          }
        }
      }
      alignas(64) std::int32_t acc[kMR * kInt8Nr];
      for (std::int64_t j0 = 0; j0 < block.nc; j0 += kInt8Nr) {
        const std::int8_t* bp =
            b.panels_.data() + block.data_off + (j0 / kInt8Nr) * kq * kInt8Nr * 4;
        const std::int32_t* csum = csum_base + j0;
        const float* sb = b.scales_.data() + block.jc + j0;
        const std::int64_t cols = std::min(kInt8Nr, block.nc - j0);
        for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
          const std::int64_t rows = std::min(kMR, mc - i0);
          kernel(ap + (i0 / kMR) * kq * kMR * 4, bp, acc, kq);
          // Tier-shared epilogue: zero-point correction + fused dequant.
          // |acc - zp*colsum| < 2^24 (kc <= 256), so the int -> float
          // conversion is exact and results match bitwise across tiers. The
          // vector path performs the identical elementwise operations
          // (mullo/sub exact in int32, cvtdq2ps exact below 2^24, vfmadd ==
          // fmaf), so it is bitwise-equal to the scalar tail as well.
          for (std::int64_t i = 0; i < rows; ++i) {
            const std::int64_t row = ic + i0 + i;
            const float sa = a_scale[row];
            const std::int32_t zp = a_zp[row];
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
