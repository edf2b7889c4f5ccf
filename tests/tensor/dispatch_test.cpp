// Dispatch-tier equivalence suite (`ctest -L kernels`): every supported ISA
// tier (scalar / AVX2 / AVX-512, per this machine and build) is forced via
// set_kernel_isa_for_testing and checked against the naive reference; the
// forced-scalar path is pinned bitwise against an embedded copy of the
// pre-dispatch kernel so the fallback can never drift; and the int8 path is
// checked for (a) a per-channel analytic error bound against fp32, (b)
// bitwise-identical results across every tier, and (c) exactness on binary
// spike inputs quantized losslessly.
#include "src/tensor/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace ullsnn {
namespace {

/// RAII: restore the entry ISA after a forced-tier test.
class IsaGuard {
 public:
  IsaGuard() : entry_(active_kernel_isa()) {}
  ~IsaGuard() { set_kernel_isa_for_testing(entry_); }

 private:
  KernelIsa entry_;
};

struct GemmCase {
  std::int64_t m, k, n;
};

// Odd sizes cover ragged MR/NR/KC edges; 96/256 hits full-tile fast paths;
// k > 256 exercises multiple pc blocks (the int8 colsum is per block).
const GemmCase kCases[] = {
    {1, 1, 1}, {3, 5, 7}, {6, 16, 32}, {13, 31, 17},
    {96, 256, 64}, {50, 300, 33}, {7, 513, 40},
};

class DispatchTierTest : public ::testing::TestWithParam<KernelIsa> {};

TEST_P(DispatchTierTest, Fp32MatchesNaive) {
  IsaGuard guard;
  set_kernel_isa_for_testing(GetParam());
  for (const GemmCase& gc : kCases) {
    Rng rng(17);
    Tensor a({gc.m, gc.k});
    Tensor b({gc.k, gc.n});
    uniform_fill(a, -1.0F, 1.0F, rng);
    uniform_fill(b, -1.0F, 1.0F, rng);
    Tensor expected({gc.m, gc.n});
    matmul_naive(a.data(), b.data(), expected.data(), gc.m, gc.k, gc.n);
    Tensor c({gc.m, gc.n});
    gemm(row_major(a.data(), gc.k), row_major(b.data(), gc.n), c.data(), gc.m,
         gc.k, gc.n, /*accumulate=*/false);
    EXPECT_TRUE(c.allclose(expected, 1e-4F))
        << to_string(GetParam()) << " " << gc.m << "x" << gc.k << "x" << gc.n;
  }
}

TEST_P(DispatchTierTest, Int8BitwiseIdenticalToScalarTier) {
  IsaGuard guard;
  for (const GemmCase& gc : kCases) {
    Rng rng(23);
    Tensor a({gc.m, gc.k});
    Tensor w({gc.n, gc.k});  // [out, in]
    uniform_fill(a, -0.5F, 2.0F, rng);
    uniform_fill(w, -1.0F, 1.0F, rng);
    QuantizedPackedB qb;
    qb.pack(quantize_weight_per_row(w.data(), gc.n, gc.k));

    set_kernel_isa_for_testing(KernelIsa::kScalar);
    Tensor c_scalar({gc.m, gc.n});
    gemm_packed_int8(row_major(a.data(), gc.k), qb, c_scalar.data(), gc.m,
                     /*accumulate=*/false);

    set_kernel_isa_for_testing(GetParam());
    Tensor c_tier({gc.m, gc.n});
    gemm_packed_int8(row_major(a.data(), gc.k), qb, c_tier.data(), gc.m,
                     /*accumulate=*/false);
    // int32 accumulation is exact and the dequant epilogue is shared scalar
    // code, so tiers must agree bit for bit — this is what keeps artifact
    // canary replay valid across machines with different SIMD support.
    EXPECT_EQ(0, std::memcmp(c_scalar.data(), c_tier.data(),
                             static_cast<std::size_t>(gc.m * gc.n) * sizeof(float)))
        << to_string(GetParam()) << " " << gc.m << "x" << gc.k << "x" << gc.n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedTiers, DispatchTierTest,
                         ::testing::ValuesIn(supported_kernel_isas()),
                         [](const ::testing::TestParamInfo<KernelIsa>& info) {
                           return to_string(info.param);
                         });

// The scalar fallback must be the pre-dispatch kernel verbatim. This embeds
// a copy of that kernel (same tile shape the old code compiled to under this
// build's -march) and checks bitwise equality of full gemm results.
namespace legacy {

constexpr std::int64_t kMR = 6;
#if defined(__AVX512F__)
constexpr std::int64_t kNR = 32;
#else
constexpr std::int64_t kNR = 16;
#endif
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 1024;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

void micro_kernel(const float* __restrict ap, const float* __restrict bp,
                  float* __restrict c, std::int64_t kc, std::int64_t ldc,
                  std::int64_t rows, std::int64_t cols) {
  float acc[kMR][kNR] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* a = ap + kk * kMR;
    const float* b = bp + kk * kNR;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = a[i];
      for (std::int64_t j = 0; j < kNR; ++j) acc[i][j] += av * b[j];
    }
  }
  if (rows == kMR && cols == kNR) {
    for (std::int64_t i = 0; i < kMR; ++i) {
      float* ci = c + i * ldc;
      for (std::int64_t j = 0; j < kNR; ++j) ci[j] += acc[i][j];
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      float* ci = c + i * ldc;
      for (std::int64_t j = 0; j < cols; ++j) ci[j] += acc[i][j];
    }
  }
}

/// The pre-dispatch blocked gemm (pack B, pack A, micro-tile loop) distilled
/// to row-major contiguous operands.
void reference_gemm(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  std::vector<float> bpanels;
  std::vector<float> apanels;
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      bpanels.assign(static_cast<std::size_t>(ceil_div(nc, kNR) * kc * kNR), 0.0F);
      for (std::int64_t j0 = 0; j0 < nc; j0 += kNR) {
        float* dst = bpanels.data() + (j0 / kNR) * kc * kNR;
        const std::int64_t jr = std::min(kNR, nc - j0);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          for (std::int64_t j = 0; j < jr; ++j) {
            dst[kk * kNR + j] = b[(pc + kk) * n + jc + j0 + j];
          }
        }
      }
      for (std::int64_t ic = 0; ic < m; ic += kMC) {
        const std::int64_t mc = std::min(kMC, m - ic);
        apanels.assign(static_cast<std::size_t>(ceil_div(mc, kMR) * kc * kMR), 0.0F);
        for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
          float* dst = apanels.data() + (i0 / kMR) * kc * kMR;
          const std::int64_t ir = std::min(kMR, mc - i0);
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            for (std::int64_t i = 0; i < ir; ++i) {
              dst[kk * kMR + i] = a[(ic + i0 + i) * k + pc + kk];
            }
          }
        }
        for (std::int64_t j0 = 0; j0 < nc; j0 += kNR) {
          const float* bp = bpanels.data() + (j0 / kNR) * kc * kNR;
          const std::int64_t cols = std::min(kNR, nc - j0);
          for (std::int64_t i0 = 0; i0 < mc; i0 += kMR) {
            micro_kernel(apanels.data() + (i0 / kMR) * kc * kMR, bp,
                         c + (ic + i0) * n + jc + j0, kc, n,
                         std::min(kMR, mc - i0), cols);
          }
        }
      }
    }
  }
}

}  // namespace legacy

TEST(ScalarFallbackTest, BitwiseIdenticalToPreDispatchKernel) {
  IsaGuard guard;
  set_kernel_isa_for_testing(KernelIsa::kScalar);
  for (const GemmCase& gc : kCases) {
    Rng rng(29);
    Tensor a({gc.m, gc.k});
    Tensor b({gc.k, gc.n});
    uniform_fill(a, -1.0F, 1.0F, rng);
    uniform_fill(b, -1.0F, 1.0F, rng);
    Tensor expected({gc.m, gc.n});
    legacy::reference_gemm(a.data(), b.data(), expected.data(), gc.m, gc.k, gc.n);
    Tensor c({gc.m, gc.n});
    gemm(row_major(a.data(), gc.k), row_major(b.data(), gc.n), c.data(), gc.m,
         gc.k, gc.n, /*accumulate=*/false);
    EXPECT_EQ(0, std::memcmp(expected.data(), c.data(),
                             static_cast<std::size_t>(gc.m * gc.n) * sizeof(float)))
        << gc.m << "x" << gc.k << "x" << gc.n;
  }
}

TEST(Int8GemmTest, ErrorBoundFromScales) {
  // Per-element analytic bound: quantizing w to w~ with per-channel scale sb
  // and a to a~ with per-row scale sa (round-to-nearest, so half-a-step max
  // error each) gives
  //   |c~ - c| <= 0.5*sb_j*sum_k|a_ik| + 0.5*sa_i*sum_k|w_jk| + 0.25*sa_i*sb_j*k
  const std::int64_t m = 37;
  const std::int64_t k = 300;
  const std::int64_t n = 29;
  Rng rng(31);
  Tensor a({m, k});
  Tensor w({n, k});
  uniform_fill(a, -1.0F, 3.0F, rng);
  uniform_fill(w, -2.0F, 2.0F, rng);
  QuantizedWeight qw = quantize_weight_per_row(w.data(), n, k);
  QuantizedPackedB qb;
  qb.pack(qw);
  Tensor c({m, n});
  gemm_packed_int8(row_major(a.data(), k), qb, c.data(), m, /*accumulate=*/false);

  for (std::int64_t i = 0; i < m; ++i) {
    float lo = 0.0F;
    float hi = 0.0F;
    float a_l1 = 0.0F;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      lo = std::min(lo, a.at(i, kk));
      hi = std::max(hi, a.at(i, kk));
      a_l1 += std::fabs(a.at(i, kk));
    }
    const float sa = (hi - lo) / 127.0F;
    for (std::int64_t j = 0; j < n; ++j) {
      const float sb = qw.scales[static_cast<std::size_t>(j)];
      double expected = 0.0;
      float w_l1 = 0.0F;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        expected += static_cast<double>(a.at(i, kk)) * w.at(j, kk);
        w_l1 += std::fabs(w.at(j, kk));
      }
      const double bound = 0.5 * sb * a_l1 + 0.5 * sa * w_l1 +
                           0.25 * static_cast<double>(sa) * sb * static_cast<double>(k) +
                           1e-3;
      EXPECT_NEAR(c.at(i, j), expected, bound) << i << "," << j;
    }
  }
}

TEST(Int8GemmTest, ExactOnBinarySpikesTimesQuantizedWeights) {
  // Binary spike rows quantize losslessly (zero point 0, scale amp/127), so
  // the only rounding left is the weight quantization — the int8 result must
  // exactly equal fmaf-accumulated q_a*q_w*scales, which we reproduce here.
  const std::int64_t m = 12;
  const std::int64_t k = 200;
  const std::int64_t n = 19;
  Rng rng(37);
  Tensor a({m, k});
  Tensor w({n, k});
  uniform_fill(a, 0.0F, 1.0F, rng);
  for (std::int64_t i = 0; i < m * k; ++i) {
    a.data()[i] = a.data()[i] < 0.2F ? 1.0F : 0.0F;  // ~20% spike density
  }
  uniform_fill(w, -1.0F, 1.0F, rng);
  QuantizedWeight qw = quantize_weight_per_row(w.data(), n, k);
  QuantizedPackedB qb;
  qb.pack(qw);
  Tensor c({m, n});
  gemm_packed_int8(row_major(a.data(), k), qb, c.data(), m, /*accumulate=*/false);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        if (a.at(i, kk) != 0.0F) {
          acc += 127 * static_cast<std::int64_t>(qw.data[static_cast<std::size_t>(j * k + kk)]);
        }
      }
      const float sa = 1.0F / 127.0F;
      const float expected = std::fmaf(static_cast<float>(acc),
                                       sa * qw.scales[static_cast<std::size_t>(j)], 0.0F);
      EXPECT_EQ(expected, c.at(i, j)) << i << "," << j;
    }
  }
}

TEST(DispatchTest, PackedBFromStalePlanRejected) {
  // Find two tiers with different fp32 panel widths; if none exist on this
  // machine/build the layout contract cannot be violated, so skip.
  const std::vector<KernelIsa> isas = supported_kernel_isas();
  IsaGuard guard;
  KernelIsa first = isas.front();
  KernelIsa second = first;
  std::int64_t first_nr = 0;
  for (KernelIsa isa : isas) {
    set_kernel_isa_for_testing(isa);
    if (first_nr == 0) {
      first = isa;
      first_nr = kernel_plan().fp32_nr;
    } else if (kernel_plan().fp32_nr != first_nr) {
      second = isa;
      break;
    }
  }
  if (second == first) GTEST_SKIP() << "all supported tiers share one panel width";

  Rng rng(41);
  Tensor a({8, 40});
  Tensor b({40, 24});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  set_kernel_isa_for_testing(first);
  PackedB packed;
  packed.pack(row_major(b.data(), 24), 40, 24, arena);
  set_kernel_isa_for_testing(second);
  Tensor c({8, 24});
  EXPECT_THROW(gemm_packed(row_major(a.data(), 40), packed, c.data(), 8, false),
               std::logic_error);
  // Repacking under the new plan works.
  PackedB repacked;
  repacked.pack(row_major(b.data(), 24), 40, 24, arena);
  gemm_packed(row_major(a.data(), 40), repacked, c.data(), 8, false);
  Tensor expected({8, 24});
  matmul_naive(a.data(), b.data(), expected.data(), 8, 40, 24);
  EXPECT_TRUE(c.allclose(expected, 1e-4F));
}

TEST(DispatchTest, IsaGaugeAndOverrideValidation) {
  // First plan resolution sets the kernels.isa gauge.
  (void)kernel_plan();
  const double gauge = obs::Registry::instance().gauge("kernels.isa").value();
  EXPECT_EQ(gauge, static_cast<double>(static_cast<int>(active_kernel_isa())));
  const std::vector<KernelIsa> isas = supported_kernel_isas();
  EXPECT_EQ(isas.front(), KernelIsa::kScalar);
  if (std::find(isas.begin(), isas.end(), KernelIsa::kAvx512) == isas.end()) {
    EXPECT_THROW(set_kernel_isa_for_testing(KernelIsa::kAvx512),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ullsnn
