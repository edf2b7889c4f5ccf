// Hot numeric kernels: GEMM, convolution (forward + both backward passes),
// pooling, and the sparsity-aware spike dispatch. Everything is NCHW,
// float32.
//
// The dense paths route through the cache-blocked, panel-packed GEMM in
// gemm.h (tiny shapes fall back to the retained naive kernels). Convolution
// packs the weight operand's panels once per call and reuses them across the
// batch-sample loop; the forwards (fp32 and int8) read the image side
// straight from a zero-bordered copy of each sample (no im2row matrix).
// Batch-level parallelism via the process-wide ThreadPool (util/parallel.h)
// is bitwise-deterministic at any thread count: samples write disjoint
// slices, and conv2d_backward reduces per-sample gradient partials in fixed
// index order. Scratch comes from the per-thread Arena (arena.h) —
// steady-state calls perform no heap allocation.
//
// The *_spiking entry points add a density-based dispatch for SNN inference:
// inputs below the density threshold take a row-compressed sparse kernel
// whose cost scales with the spike count, and the nonzero tally the dispatch
// scan produces is returned so layers get their activity accounting for free
// (no separate counting pass; see docs/performance.md). Their PreparedWeight
// forms take the weight already transposed and packed, so a served request
// neither transposes nor packs any weight.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace ullsnn {

/// C[M,N] = A[M,K] * B[K,N]. `accumulate` adds into C instead of overwriting.
void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate = false);

/// C[M,N] = A^T[M,K] * B[K,N] where A is stored [K,M].
void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

/// C[M,N] = A[M,K] * B^T[K,N] where B is stored [N,K].
void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate = false);

// Reference scalar kernels (the pre-blocking implementations), retained as
// the ground truth for the `ctest -L kernels` equivalence suite and as the
// small-shape fast path of the matmul* entry points (the spiking forwards
// never take it): below kNaiveGemmCutoff elements of work, packing overhead
// exceeds the blocked kernel's gain.
void matmul_naive(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate = false);
void matmul_at_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate = false);
void matmul_bt_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate = false);

constexpr std::int64_t kNaiveGemmCutoff = 32 * 32 * 32;  // m*k*n MACs

/// Tensor-level GEMM convenience: a is [M,K], b is [K,N], result [M,N].
Tensor matmul(const Tensor& a, const Tensor& b);

struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;

  std::int64_t out_extent(std::int64_t in_extent) const {
    return (in_extent + 2 * pad - kernel) / stride + 1;
  }
};

/// Unpack one sample's [C,H,W] image into rows [OH*OW, C*K*K] — one
/// receptive field per row, zero where the window overhangs the border.
/// conv2d_backward's lowering; the conv forwards read the same values
/// straight from the image instead (gemm.h PatchView).
void im2row(const float* img, float* rows, std::int64_t channels,
            std::int64_t height, std::int64_t width, const Conv2dSpec& spec);

/// Inverse of im2row: accumulate rows back into the [C,H,W] image buffer.
/// The image buffer must be zeroed by the caller.
void row2im(const float* rows, float* img, std::int64_t channels,
            std::int64_t height, std::int64_t width, const Conv2dSpec& spec);

/// True when the dense fp32 conv forwards compute a layer with
/// `out_channels` outputs over `out_pixels` = OH*OW pixels as W * P^T, with the
/// output pixels on the micro-kernel's vector lanes, rather than as P * W^T:
/// under the active kernel plan that orientation runs no more micro-tiles
/// (gemm_micro_tiles), and W, which it re-packs for every sample, is no
/// larger than the patch matrix P. Both give bitwise the same output; the
/// kernel.conv.pixels_on_lanes counter counts the samples that ran this way.
bool conv_pixels_on_lanes(std::int64_t out_channels, std::int64_t out_pixels);

/// Forward convolution. input [N,Cin,H,W], weight [Cout,Cin,K,K],
/// bias [Cout] (may be empty), output [N,Cout,OH,OW].
void conv2d_forward(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, Tensor& output, const Conv2dSpec& spec);

/// Gradients of conv2d. grad_output [N,Cout,OH,OW].
/// Accumulates into grad_weight/grad_bias; overwrites grad_input.
/// Pass nullptr grad_input to skip the input gradient (first layer).
/// Per-sample gradient partials are reduced in fixed index order, so the
/// result is bitwise identical at any thread count.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor* grad_input,
                     Tensor& grad_weight, Tensor* grad_bias,
                     const Conv2dSpec& spec);

// ---------------------------------------------------------------------------
// Sparsity-aware spike dispatch (SNN inference path).
// ---------------------------------------------------------------------------

/// Inputs at or below this nonzero fraction take the sparse kernel. The
/// crossover sits near 10-15% density on current hardware (bench_kernels'
/// density sweep); 10% is the conservative default.
constexpr float kDefaultSpikeDensityThreshold = 0.10F;

struct SpikeKernelStats {
  std::int64_t nonzeros = 0;        // exact nnz of every input seen
  std::int64_t elements = 0;        // total input elements seen
  std::int64_t sparse_samples = 0;  // samples dispatched to the sparse kernel
  std::int64_t dense_samples = 0;   // samples dispatched to the dense kernel
};

/// A synaptic weight W [rows, cols] (conv: [Cout, Cin*K*K]; linear:
/// [out, in]) prepared once for the spiking kernels:
///  - W^T [cols, rows], which the sparse conv scatter and
///    spmm_row_compressed read;
///  - at kFp32, W^T packed into GEMM panels (owned storage) for dense samples;
///  - at kInt8, the int8 panels for dense samples, packed from `quantized`
///    when given, else from quantize_weight_per_row(W).
/// Read-only after construction, so one instance may serve any number of
/// network replicas and threads at once. The panels are the bytes the
/// per-call path packs, so results are bitwise identical to it. `w` is copied;
/// its address is remembered only so owners can tell which weight this was
/// prepared from.
class PreparedWeight {
 public:
  PreparedWeight(const float* w, std::int64_t rows, std::int64_t cols,
                 Precision precision, const QuantizedWeight* quantized = nullptr);
  PreparedWeight(const PreparedWeight&) = delete;
  PreparedWeight& operator=(const PreparedWeight&) = delete;

  const float* source() const { return source_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  const float* transposed() const { return wt_.data(); }
  /// Dense fp32 panels; null when prepared for int8, or when the kernel plan
  /// changed since (set_kernel_isa_for_testing) — callers then pack per call.
  const PackedB* fp32_panels() const;
  /// Dense int8 panels; null unless prepared for int8.
  const QuantizedPackedB* int8_panels() const {
    return has_int8_ ? &int8_ : nullptr;
  }

 private:
  const float* source_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<float> wt_;
  std::vector<float> panel_storage_;
  PackedB fp32_;
  bool has_fp32_ = false;
  QuantizedPackedB int8_;
  bool has_int8_ = false;
};

/// Forward convolution with per-sample density dispatch: samples whose input
/// density is <= `density_threshold` run an event-style scatter over the
/// nonzero pixels (cost ~ nnz * K^2 * Cout); the rest run the blocked dense
/// path. The dispatch scan counts nonzeros exactly and accumulates them into
/// `stats`, which replaces the layers' standalone counting pass. `prepared`
/// holds the weight's transposed and packed forms; at kInt8, dense samples
/// run the int8 kernel against prepared.int8_panels() (which must exist)
/// instead of the fp32 blocked GEMM; sparse samples keep the fp32 scatter
/// (the dispatch is deterministic, so mixed-precision results stay
/// reproducible).
void conv2d_forward_spiking(const Tensor& input, const PreparedWeight& prepared,
                            Tensor& output, const Conv2dSpec& spec,
                            float density_threshold, Precision precision,
                            SpikeKernelStats& stats);

/// Fully-connected forward (out[N,out] = input[N,in] * W^T) with the same
/// density dispatch: sparse inputs take the row-compressed spike GEMM against
/// prepared.transposed(). Dense fp32 rows always run the blocked GEMM, so a
/// row's output does not depend on the batch size; `weight` is the W
/// `prepared` was built from, read only when `prepared` has no fp32 panels
/// for the active kernel plan. Same int8 contract as above.
void linear_forward_spiking(const Tensor& input, const Tensor& weight,
                            const PreparedWeight& prepared, Tensor& output,
                            float density_threshold, Precision precision,
                            SpikeKernelStats& stats);

/// Per-call forms of the two entry points above, with identical results.
/// `wt_cache` caches the transposed weight — the caller owns it and must
/// clear() it whenever the weight changes — and dense fp32 samples pack their
/// GEMM panels on every call. When `qweight` (packed from the [rows, cols]
/// weight) is non-null, dense samples run the int8 kernel against it.
void conv2d_forward_spiking(const Tensor& input, const Tensor& weight,
                            Tensor& output, const Conv2dSpec& spec,
                            float density_threshold,
                            std::vector<float>& wt_cache,
                            SpikeKernelStats& stats,
                            const QuantizedPackedB* qweight = nullptr);
void linear_forward_spiking(const Tensor& input, const Tensor& weight,
                            Tensor& output, float density_threshold,
                            std::vector<float>& wt_cache,
                            SpikeKernelStats& stats,
                            const QuantizedPackedB* qweight = nullptr);

// ---------------------------------------------------------------------------
// Pooling.
// ---------------------------------------------------------------------------

struct Pool2dSpec {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;

  std::int64_t out_extent(std::int64_t in_extent) const {
    return (in_extent - kernel) / stride + 1;
  }
};

/// Throws std::invalid_argument unless the pooling window tiles the input
/// exactly ((extent - kernel) % stride == 0 in both dimensions). Layers call
/// this at forward/begin_sequence time so a silently-truncating geometry is
/// rejected instead of dropping the trailing rows/columns.
void validate_pool_geometry(const Pool2dSpec& spec, std::int64_t height,
                            std::int64_t width);

/// Max pooling. With a non-null `argmax`, also records the flat input index
/// of each output's maximum (first on ties; same size as output) for the
/// backward pass; the pooled values are the same bits either way.
/// Plane-parallel (each [H,W] plane is independent) when the pool has
/// threads.
void maxpool2d_forward(const Tensor& input, Tensor& output, const Pool2dSpec& spec,
                       std::vector<std::int64_t>* argmax = nullptr);

/// Scatter grad_output to the recorded argmax positions. Overwrites
/// grad_input. Argmax indices must come from maxpool2d_forward on the same
/// geometry (each output's argmax lies in its own input plane), which keeps
/// the plane-parallel scatter race-free.
void maxpool2d_backward(const Tensor& grad_output,
                        const std::vector<std::int64_t>& argmax,
                        Tensor& grad_input);

/// Average pooling.
void avgpool2d_forward(const Tensor& input, Tensor& output, const Pool2dSpec& spec);
void avgpool2d_backward(const Tensor& grad_output, Tensor& grad_input,
                        const Pool2dSpec& spec);

}  // namespace ullsnn
