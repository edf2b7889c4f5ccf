// Cache-blocked, panel-packed SGEMM and the sparsity-aware spike GEMM.
//
// One register-tiled micro-kernel (MR x NR accumulators held in registers
// across the K loop, written so GCC/Clang auto-vectorize it with broadcasted
// FMAs) sits under a classic three-level blocking scheme:
//
//   for jc in N step Nc:          B column block    (streams through L3)
//     for pc in K step Kc:        packed B panel    (lives in L2)
//       for ic in M step Mc:      packed A panel    (lives in L1)
//         MR x NR micro-tiles accumulate in registers
//
// Both operands are packed: B into [Kc x NR] column panels, A into [Kc x MR]
// row panels, with edge tiles zero-padded so the micro-kernel never branches
// on geometry. Transposed operands cost nothing extra — packing reads through
// a strided MatView, so matmul_at / matmul_bt share the single kernel. A
// convolution's patch matrix P (its implicit im2row matrix) is packed straight
// from the zero-bordered image through a PatchView, as either operand: as A
// for P * W^T (output channels on the vector lanes), or as B = P^T for
// W * P^T (output pixels on the lanes, C already in NCHW order), so the dense
// conv forward never builds an im2row matrix. conv_pixels_on_lanes (ops.h)
// picks the orientation, mainly by gemm_micro_tiles.
//
// PackedB lets a caller pack a reused right-hand operand once (conv weights
// across the batch-sample loop; linear weights across time steps) and run
// many GEMMs against it. All scratch comes from the per-thread Arena — no
// heap traffic in steady state.
//
// spmm_row_compressed is the spike path: A rows are compressed to their
// nonzero (index, value) pairs on the fly, and C accumulates value-scaled
// rows of B. Work drops from M*K*N to nnz(A)*N, which beats the dense kernel
// once input density falls below roughly 10% (see docs/performance.md).
// The micro-kernel under all of this is runtime-dispatched (scalar / AVX2 /
// AVX-512 — see dispatch.h); PackedB panel layout follows the active plan's
// register-tile width, so operands must be packed and consumed under the same
// plan (enforced). The int8 path (QuantizedWeight / QuantizedPackedB /
// gemm_packed_int8) quantizes weights per output channel offline and
// activations per row on the fly, accumulates in int32, and dequantizes in a
// fused float epilogue; its results are bitwise identical across dispatch
// tiers (docs/performance.md has the argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/tensor/arena.h"

namespace ullsnn {

/// Read-only strided matrix view: element (r, c) = data[r*rs + c*cs].
struct MatView {
  const float* data = nullptr;
  std::int64_t rs = 0;  // row stride
  std::int64_t cs = 0;  // column stride
};

/// Row-major [rows, ld] matrix.
inline MatView row_major(const float* data, std::int64_t ld) {
  return {data, ld, 1};
}

/// Transpose of a row-major [rows, ld] matrix: view (r, c) = data[c*ld + r].
inline MatView transposed(const float* data, std::int64_t ld) {
  return {data, 1, ld};
}

/// Implicit im2row operand of a convolution over one zero-bordered image
/// [C, Hp, Wp] (Hp = H + 2*pad, Wp = W + 2*pad): row r = oy*ow + ox is the
/// receptive field of output pixel (oy, ox), and its column kk reads
///   image[(oy*stride)*wp + ox*stride + offsets[kk]],
/// with offsets[(c*K + ky)*K + kx] = (c*Hp + ky)*Wp + kx. The GEMMs read it
/// straight from the image, as A or, transposed, as a packed B, so the
/// [OH*OW, C*K*K] im2row matrix is never built, yet they see exactly im2row's
/// values (the zero border supplies the padding zeros).
struct PatchView {
  const float* image = nullptr;
  const std::int64_t* offsets = nullptr;  // one per column of A
  std::int64_t ow = 0;                    // output width
  std::int64_t stride = 1;
  std::int64_t wp = 0;                    // padded image row length
  std::int64_t kernel = 1;                // K: offsets run in K-long unit steps

  /// Base of row r: its column kk is row(r)[offsets[kk]].
  const float* row(std::int64_t r) const {
    return image + (r / ow) * stride * wp + (r % ow) * stride;
  }
};

/// Right-hand operand packed once into micro-kernel panel layout, reusable
/// across any number of gemm_packed calls. Panels live in caller-provided
/// storage (an arena, or a buffer the caller owns), which must outlive the
/// PackedB.
class PackedB {
 public:
  /// Pack the [k, n] matrix viewed by `b` into panels allocated from `arena`;
  /// the PackedB must not outlive that arena's enclosing ArenaScope.
  /// Panels are laid out for the kernel plan active at pack time; gemm_packed
  /// rejects a PackedB packed under a different plan (re-pack after
  /// set_kernel_isa_for_testing).
  void pack(MatView b, std::int64_t k, std::int64_t n, Arena& arena);
  /// Same panels, written to `storage`, which must hold packed_floats(k, n)
  /// floats.
  void pack(MatView b, std::int64_t k, std::int64_t n, float* storage);
  /// Pack B = P^T, the transposed im2row matrix of `a` (k = C*K*K rows, one
  /// column per output pixel, n = OH*OW), into panels allocated from
  /// `arena`: each panel row is a copy of contiguous runs of output pixels
  /// (strided at stride > 1) straight from the image. Same panels as pack()
  /// over the materialised transposed im2row matrix.
  void pack(const PatchView& a, std::int64_t k, std::int64_t n, Arena& arena);
  /// Floats pack() writes for a [k, n] operand under the active plan.
  static std::size_t packed_floats(std::int64_t k, std::int64_t n);

  std::int64_t k() const { return k_; }
  std::int64_t n() const { return n_; }
  /// True iff the panels fit the active kernel plan (gemm_packed accepts them).
  bool packed_for_active_plan() const;

 private:
  friend void gemm_packed(MatView a, const PackedB& b, float* c, std::int64_t m,
                          bool accumulate);
  friend void gemm_packed(PatchView a, const PackedB& b, float* c, std::int64_t m,
                          bool accumulate);
  /// Panel block for one (pc, jc) tile of B; `data` holds ceil(nc/NR) panels
  /// of kc x NR floats each, consecutive panels covering consecutive NR-wide
  /// column strips.
  struct Block {
    const float* data;
    std::int64_t pc, kc;  // K-range [pc, pc+kc)
    std::int64_t jc, nc;  // N-range [jc, jc+nc)
  };
  std::vector<Block> blocks_;
  std::int64_t k_ = 0;
  std::int64_t n_ = 0;
  std::int64_t nr_ = 0;  // panel width the blocks were packed for
};

/// C[m, n()] (+)= A[m, k()] * B. C is row-major contiguous with ld = n().
void gemm_packed(MatView a, const PackedB& b, float* c, std::int64_t m,
                 bool accumulate);

/// The same product with A the implicit im2row matrix of `a` (m = OH*OW,
/// k() = C*K*K). Bitwise equal to gemm_packed over the materialised im2row
/// rows: one blocked loop runs both, only the A packing differs.
void gemm_packed(PatchView a, const PackedB& b, float* c, std::int64_t m,
                 bool accumulate);

/// Micro-tiles gemm_packed runs for an [m, n] result under the active kernel
/// plan: ceil(m / MR) * ceil(n / NR). Of C = A * B and C^T = B^T * A^T, the
/// one with the smaller count pads fewer register lanes.
std::int64_t gemm_micro_tiles(std::int64_t m, std::int64_t n);

/// C[m, n] (+)= A[m, k] * B[k, n], both operands through strided views,
/// C row-major contiguous. Packs B into the thread arena internally.
void gemm(MatView a, MatView b, float* c, std::int64_t m, std::int64_t k,
          std::int64_t n, bool accumulate);

/// Sparse spike GEMM: C[m, n] (+)= A[m, k] * B[k, n] with A row-compressed on
/// the fly (per row, gather nonzero column indices, then accumulate scaled
/// rows of B). A and B row-major contiguous. Returns nnz(A), which the SNN
/// layers reuse for spiking-activity accounting.
std::int64_t spmm_row_compressed(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k, std::int64_t n,
                                 bool accumulate);

/// Inference numeric mode for a model or layer. kInt8 applies to the dense
/// eval-mode forward only (training and the sparse spike path stay fp32).
enum class Precision : std::uint8_t { kFp32 = 0, kInt8 = 1 };

const char* to_string(Precision precision);

/// Per-output-channel symmetric int8 weights: row i of `data` holds
/// round(w[i, :] / scales[i]) clamped to [-127, 127], with
/// scales[i] = max_abs(w[i, :]) / 127.
struct QuantizedWeight {
  std::vector<std::int8_t> data;  // [rows, cols] row-major
  std::vector<float> scales;      // [rows]
  std::int64_t rows = 0;
  std::int64_t cols = 0;

  bool empty() const { return rows == 0; }
};

/// Quantize a row-major [rows, cols] fp32 matrix per row. Deterministic
/// (round-to-nearest-even via lrintf), so pack-time and load-time
/// quantization of the same weights produce identical bytes — the artifact
/// canary contract depends on this.
QuantizedWeight quantize_weight_per_row(const float* w, std::int64_t rows,
                                        std::int64_t cols);

/// Pre-quantized right-hand operand in int8 micro-kernel panel layout
/// (B = W^T: k = w.cols, n = w.rows), plus the per-block column sums the
/// epilogue needs for the activation zero-point correction. Unlike PackedB,
/// storage is owned by this object — a layer packs once and reuses across
/// time steps, sequences, and threads (read-only after pack).
class QuantizedPackedB {
 public:
  void pack(const QuantizedWeight& w);
  void clear();

  bool empty() const { return n_ == 0; }
  std::int64_t k() const { return k_; }
  std::int64_t n() const { return n_; }

 private:
  friend void gemm_packed_int8(MatView a, const QuantizedPackedB& b, float* c,
                               std::int64_t m, bool accumulate);
  friend void gemm_packed_int8(PatchView a, const QuantizedPackedB& b, float* c,
                               std::int64_t m, bool accumulate);
  /// The A side: m rows quantized per row to uint8 in [0, 127] (asymmetric,
  /// with 0 always in range so it maps exactly onto the zero point), written
  /// straight into the micro-kernel's A panel layout over the whole K extent
  /// (gemm_kernels.h), in storage from the caller's arena.
  class Rows {
   public:
    Rows(std::int64_t m, std::int64_t k, Arena& arena);
    /// Quantize row i from k floats at row[0], row[stride], ...
    void quantize(std::int64_t i, const float* row, std::int64_t stride);
    /// Quantize all m rows of the implicit im2row matrix `a`; scratch from
    /// `arena`. Same bytes as quantizing the materialised rows one by one
    /// (for finite inputs).
    void quantize(const PatchView& a, Arena& arena);
    /// A panel of rows [6p, 6p+6) from k-quad q0 on, as the micro-kernel
    /// reads it; zero past k and past row m.
    const std::uint8_t* panel(std::int64_t p, std::int64_t q0) const;

    float* scale;              // [m]
    std::int32_t* zero_point;  // [m]

   private:
    std::uint8_t* panels_;  // [ceil(m/6)][ceil(k/4)][6][4]
    std::uint8_t* bytes_;   // one quantized row, zero past k
    std::int64_t m_;
    std::int64_t k_;
    std::int64_t kq_;       // ceil(k/4)
  };
  /// C[m, n()] (+)= A * B for A already quantized.
  void multiply(const Rows& a, float* c, std::int64_t m, bool accumulate) const;
  struct Block {
    std::int64_t pc, kc;      // K-range [pc, pc+kc)
    std::int64_t jc, nc;      // N-range [jc, jc+nc)
    std::size_t data_off;     // into panels_
    std::size_t colsum_off;   // into colsums_
  };
  std::vector<Block> blocks_;
  std::vector<std::int8_t> panels_;    // k-quad interleaved (gemm_kernels.h)
  std::vector<std::int32_t> colsums_;  // per block: sum of q_b over real k
  std::vector<float> scales_;          // per output column (= W row)
  std::int64_t k_ = 0;
  std::int64_t n_ = 0;
};

/// C[m, n()] (+)= A[m, k()] * B, with A quantized on the fly per row
/// (asymmetric uint8 in [0, 127] — exact for nonnegative spike inputs) and B
/// pre-quantized; int32 accumulation, fused dequant-to-float epilogue.
/// Results are bitwise identical across dispatch tiers.
void gemm_packed_int8(MatView a, const QuantizedPackedB& b, float* c,
                      std::int64_t m, bool accumulate);

/// The same product with A the implicit im2row matrix of `a`. Where stride 1
/// puts adjacent output pixels of one output row next to each other in the
/// image, a vector of them is quantized at once, column by column; any other
/// row has its receptive field gathered into an L1-resident row first. Bitwise
/// equal to gemm_packed_int8 over the materialised im2row rows for finite
/// inputs (a NaN may resolve a row's range differently).
void gemm_packed_int8(PatchView a, const QuantizedPackedB& b, float* c,
                      std::int64_t m, bool accumulate);

}  // namespace ullsnn
