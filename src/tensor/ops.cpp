#include "src/tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/util/parallel.h"

namespace ullsnn {

// ---------------------------------------------------------------------------
// Reference naive kernels (retained as equivalence-test ground truth and as
// the small-shape fast path — below the cutoff, panel packing costs more
// than it saves).
// ---------------------------------------------------------------------------

void matmul_naive(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // i-k-j order: the inner loop streams both B's row and C's row, which
  // vectorizes cleanly and keeps B in cache across consecutive i.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = ai[kk];
      if (aik == 0.0F) continue;  // spikes make many zero rows; skip them
      const float* bk = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void matmul_at_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // A stored [K,M]: element A^T(i,kk) = a[kk*m + i].
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * m;
    const float* bk = b + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aik = ak[i];
      if (aik == 0.0F) continue;
      float* ci = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

void matmul_bt_naive(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  // B stored [N,K]: dot products of contiguous rows — already cache-friendly.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0F;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked GEMM routing. A very narrow result (n below one micro-tile) leaves
// most of each register tile computing on padding, so those shapes also take
// the naive kernels.
// ---------------------------------------------------------------------------

namespace {
bool use_naive(std::int64_t m, std::int64_t k, std::int64_t n) {
  return n < 8 || m * k * n <= kNaiveGemmCutoff;
}
}  // namespace

void matmul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t k, std::int64_t n, bool accumulate) {
  if (use_naive(m, k, n)) {
    matmul_naive(a, b, c, m, k, n, accumulate);
    return;
  }
  gemm(row_major(a, k), row_major(b, n), c, m, k, n, accumulate);
}

void matmul_at(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  if (use_naive(m, k, n)) {
    matmul_at_naive(a, b, c, m, k, n, accumulate);
    return;
  }
  gemm(transposed(a, m), row_major(b, n), c, m, k, n, accumulate);
}

void matmul_bt(const float* a, const float* b, float* c, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate) {
  if (use_naive(m, k, n)) {
    matmul_bt_naive(a, b, c, m, k, n, accumulate);
    return;
  }
  gemm(row_major(a, k), transposed(b, k), c, m, k, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  Tensor c({a.dim(0), b.dim(1)});
  matmul(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

// ---------------------------------------------------------------------------
// im2row and its inverse, for conv2d_backward. The conv forwards read their
// GEMM operand straight from the image instead (gemm.h PatchView).
// ---------------------------------------------------------------------------

namespace {

/// Slow-path patch gather with per-element border clamping. Only used for the
/// 2*pad output columns on the left/right image edge (and everything, for
/// exotic specs where the interior fast path in im2row does not apply).
void im2row_patch_clamped(const float* img, float* dst, std::int64_t channels,
                          std::int64_t height, std::int64_t width,
                          std::int64_t y0, std::int64_t x0, std::int64_t k) {
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* ch = img + c * height * width;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const std::int64_t iy = y0 + ky;
      if (iy < 0 || iy >= height) {
        for (std::int64_t kx = 0; kx < k; ++kx) *dst++ = 0.0F;
        continue;
      }
      const float* src_row = ch + iy * width;
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const std::int64_t ix = x0 + kx;
        *dst++ = (ix >= 0 && ix < width) ? src_row[ix] : 0.0F;
      }
    }
  }
}

}  // namespace

void im2row(const float* img, float* rows, std::int64_t channels,
            std::int64_t height, std::int64_t width, const Conv2dSpec& spec) {
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const std::int64_t k = spec.kernel;
  const std::int64_t patch = channels * k * k;
  const std::int64_t hw = height * width;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t y0 = oy * spec.stride - spec.pad;
    // Vertical border handling depends only on (oy, ky): rows with
    // ky in [ky_lo, ky_hi) are in-bounds, the rest are zero padding.
    const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
    const std::int64_t ky_hi = std::min(k, height - y0);
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int64_t x0 = ox * spec.stride - spec.pad;
      float* dst = rows + (oy * ow + ox) * patch;
      if (x0 < 0 || x0 + k > width) {
        im2row_patch_clamped(img, dst, channels, height, width, y0, x0, k);
        continue;
      }
      // Interior column: every kernel row is a contiguous k-float span of the
      // image, so the patch gather is k small copies per channel with no
      // per-element bounds checks. k == 3 (every conv in the model zoo) gets
      // an unrolled copy; other sizes take the memcpy loop.
      const float* base = img + y0 * width + x0;
      if (k == 3) {
        for (std::int64_t c = 0; c < channels; ++c) {
          const float* ch = base + c * hw;
          for (std::int64_t ky = 0; ky < 3; ++ky, dst += 3, ch += width) {
            if (ky < ky_lo || ky >= ky_hi) {
              dst[0] = dst[1] = dst[2] = 0.0F;
            } else {
              dst[0] = ch[0];
              dst[1] = ch[1];
              dst[2] = ch[2];
            }
          }
        }
      } else {
        for (std::int64_t c = 0; c < channels; ++c) {
          const float* ch = base + c * hw;
          for (std::int64_t ky = 0; ky < k; ++ky, dst += k, ch += width) {
            if (ky < ky_lo || ky >= ky_hi) {
              std::fill(dst, dst + k, 0.0F);
            } else {
              std::memcpy(dst, ch, sizeof(float) * static_cast<std::size_t>(k));
            }
          }
        }
      }
    }
  }
}

void row2im(const float* rows, float* img, std::int64_t channels,
            std::int64_t height, std::int64_t width, const Conv2dSpec& spec) {
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const std::int64_t k = spec.kernel;
  const std::int64_t patch = channels * k * k;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const float* src = rows + (oy * ow + ox) * patch;
      for (std::int64_t c = 0; c < channels; ++c) {
        float* ch = img + c * height * width;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * spec.stride + ky - spec.pad;
          if (iy < 0 || iy >= height) {
            src += k;
            continue;
          }
          float* dst_row = ch + iy * width;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * spec.stride + kx - spec.pad;
            if (ix >= 0 && ix < width) dst_row[ix] += src[kx];
          }
          src += k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Convolution.
// ---------------------------------------------------------------------------

namespace {

/// out[Cout, OHW] = out_t[OHW, Cout]^T (+ bias), tiled over the pixel axis so
/// both streams stay cache-resident.
void transpose_to_nchw(const float* out_t, float* out, const float* bias,
                       std::int64_t cout, std::int64_t ohw) {
  constexpr std::int64_t kTile = 64;
  for (std::int64_t p0 = 0; p0 < ohw; p0 += kTile) {
    const std::int64_t pn = std::min(kTile, ohw - p0);
    for (std::int64_t co = 0; co < cout; ++co) {
      const float b = bias != nullptr ? bias[co] : 0.0F;
      const float* src = out_t + p0 * cout + co;
      float* dst = out + co * ohw + p0;
      for (std::int64_t p = 0; p < pn; ++p) dst[p] = src[p * cout] + b;
    }
  }
}

void check_conv_input(const Tensor& input, const Conv2dSpec& spec,
                      const char* who) {
  if (input.dim(1) != spec.in_channels) {
    throw std::invalid_argument(std::string(who) + ": input channels " +
                                std::to_string(input.dim(1)) + " != spec " +
                                std::to_string(spec.in_channels));
  }
}

/// PatchView column offsets into a zero-bordered [C, H+2p, W+2p] image, in
/// im2row column order. They depend only on the geometry, so one table from
/// the calling thread's arena serves every sample of a call.
const std::int64_t* patch_offsets(const Conv2dSpec& spec, std::int64_t height,
                                  std::int64_t width, Arena& arena) {
  const std::int64_t k = spec.kernel;
  const std::int64_t hp = height + 2 * spec.pad;
  const std::int64_t wp = width + 2 * spec.pad;
  std::int64_t* offsets =
      arena.alloc_indices(static_cast<std::size_t>(spec.in_channels * k * k));
  std::int64_t* o = offsets;
  for (std::int64_t c = 0; c < spec.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) *o++ = (c * hp + ky) * wp + kx;
    }
  }
  return offsets;
}

/// Dense convolution of one sample into its NCHW slice `out` [Cout, OHW],
/// plus `bias[co]` on channel co when given. A zero-bordered copy of the image
/// is made in `arena` (none when there is no padding) and the patch matrix P
/// is read straight from it. With `qweight` the int8 product P * W^T runs and
/// is transposed into place. fp32 picks its GEMM orientation by shape alone
/// (conv_pixels_on_lanes): out = W * P^T, with `w` viewing W as [Cout, C*K*K],
/// lands in NCHW order directly; otherwise P * W^T runs against the W^T
/// `panels` and is transposed into place. Both orientations give every output
/// the same FMA chain from +0, over the same K order and kKC split, so the
/// result is bitwise the same either way.
void conv_sample_dense(const float* img, const std::int64_t* offsets, MatView w,
                       const PackedB* panels, const QuantizedPackedB* qweight,
                       const float* bias, float* out, const Conv2dSpec& spec,
                       std::int64_t height, std::int64_t width, Arena& arena) {
  const std::int64_t pad = spec.pad;
  const std::int64_t hp = height + 2 * pad;
  const std::int64_t wp = width + 2 * pad;
  const float* image = img;
  if (pad > 0) {
    float* padded =
        arena.alloc_floats_zeroed(static_cast<std::size_t>(spec.in_channels * hp * wp));
    for (std::int64_t c = 0; c < spec.in_channels; ++c) {
      for (std::int64_t y = 0; y < height; ++y) {
        std::memcpy(padded + (c * hp + y + pad) * wp + pad,
                    img + (c * height + y) * width,
                    static_cast<std::size_t>(width) * sizeof(float));
      }
    }
    image = padded;
  }
  const std::int64_t ow = spec.out_extent(width);
  const PatchView patches{image, offsets, ow, spec.stride, wp, spec.kernel};
  const std::int64_t ohw = spec.out_extent(height) * ow;
  const std::int64_t cout = spec.out_channels;
  if (qweight == nullptr && conv_pixels_on_lanes(cout, ohw)) {
    PackedB pixels;
    pixels.pack(patches, spec.in_channels * spec.kernel * spec.kernel, ohw, arena);
    gemm_packed(w, pixels, out, cout, /*accumulate=*/false);
    if (bias != nullptr) {
      for (std::int64_t co = 0; co < cout; ++co) {
        float* row = out + co * ohw;
        for (std::int64_t p = 0; p < ohw; ++p) row[p] += bias[co];
      }
    }
    ULLSNN_COUNTER_ADD("kernel.conv.pixels_on_lanes", 1);
    return;
  }
  float* out_t = arena.alloc_floats(static_cast<std::size_t>(ohw * cout));
  if (qweight != nullptr) {
    gemm_packed_int8(patches, *qweight, out_t, ohw, /*accumulate=*/false);
  } else {
    gemm_packed(patches, *panels, out_t, ohw, /*accumulate=*/false);
  }
  transpose_to_nchw(out_t, out, bias, cout, ohw);
}

}  // namespace

bool conv_pixels_on_lanes(std::int64_t out_channels, std::int64_t out_pixels) {
  // The tile count alone is not enough: at NR 16, a 64-channel 4x4 layer runs
  // 11 micro-tiles with the pixels on the lanes against 12, yet took 1.6x as
  // long, because re-packing its 64 x 576 W per sample outweighs the tile.
  return out_channels <= out_pixels &&
         gemm_micro_tiles(out_channels, out_pixels) <=
             gemm_micro_tiles(out_pixels, out_channels);
}

void conv2d_forward(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, Tensor& output, const Conv2dSpec& spec) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const std::int64_t ohw = oh * ow;
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  check_conv_input(input, spec, "conv2d_forward");
  // With the channels on the lanes the weight is the GEMM's right-hand operand
  // ([patch, Cout] = W^T), so its panels are packed exactly once here and
  // reused across the batch loop; with the pixels on the lanes it is A, read
  // row-major as it is.
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  PackedB wt_packed;
  if (!conv_pixels_on_lanes(spec.out_channels, ohw)) {
    wt_packed.pack(transposed(weight.data(), patch), patch, spec.out_channels, arena);
  }
  const std::int64_t* offsets = patch_offsets(spec, height, width, arena);
  const float* bias_data = bias.empty() ? nullptr : bias.data();
  const auto run_sample = [&](std::int64_t n) {
    Arena& local = thread_arena();
    ArenaScope sample_scope(local);
    conv_sample_dense(input.data() + n * spec.in_channels * height * width, offsets,
                      row_major(weight.data(), patch), &wt_packed, nullptr, bias_data,
                      output.data() + n * spec.out_channels * ohw, spec, height, width,
                      local);
  };
  if (num_threads() > 1 && batch > 1) {
    // Samples write disjoint output slices, so batch-level parallelism needs
    // no synchronization; each worker scratches in its own arena.
    parallel_for(batch, run_sample);
  } else {
    for (std::int64_t n = 0; n < batch; ++n) run_sample(n);
  }
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, Tensor* grad_input,
                     Tensor& grad_weight, Tensor* grad_bias,
                     const Conv2dSpec& spec) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const std::int64_t ohw = oh * ow;
  const std::int64_t cout = spec.out_channels;
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  check_conv_input(input, spec, "conv2d_backward");
  if (grad_input != nullptr) grad_input->fill(0.0F);
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  // Each sample computes its weight/bias gradient into a private partial;
  // the reduction below adds them in sample order, so the result is bitwise
  // identical whether 1 or N threads ran the batch loop.
  float* dw_partials =
      arena.alloc_floats(static_cast<std::size_t>(batch * cout * patch));
  float* db_partials =
      grad_bias != nullptr ? arena.alloc_floats(static_cast<std::size_t>(batch * cout))
                           : nullptr;
  // The weight is the shared right-hand operand of every sample's grad-input
  // GEMM — packed once, reused across the batch loop.
  PackedB w_packed;
  if (grad_input != nullptr) {
    w_packed.pack(row_major(weight.data(), patch), cout, patch, arena);
  }
  const auto run_sample = [&](std::int64_t n) {
    Arena& local = thread_arena();
    ArenaScope sample_scope(local);
    const float* img = input.data() + n * spec.in_channels * height * width;
    const float* gout = grad_output.data() + n * cout * ohw;
    float* rows = local.alloc_floats(static_cast<std::size_t>(ohw * patch));
    im2row(img, rows, spec.in_channels, height, width, spec);
    // dW_n[Cout, patch] = gout[Cout, OHW] * rows[OHW, patch]
    gemm(row_major(gout, ohw), row_major(rows, patch), dw_partials + n * cout * patch,
         cout, ohw, patch, /*accumulate=*/false);
    if (db_partials != nullptr) {
      float* db = db_partials + n * cout;
      for (std::int64_t c = 0; c < cout; ++c) {
        const float* gc = gout + c * ohw;
        float acc = 0.0F;
        for (std::int64_t i = 0; i < ohw; ++i) acc += gc[i];
        db[c] = acc;
      }
    }
    if (grad_input != nullptr) {
      // drows[OHW, patch] = gout^T[OHW, Cout] * W[Cout, patch]
      float* drows = local.alloc_floats(static_cast<std::size_t>(ohw * patch));
      gemm_packed(transposed(gout, ohw), w_packed, drows, ohw, /*accumulate=*/false);
      row2im(drows, grad_input->data() + n * spec.in_channels * height * width,
             spec.in_channels, height, width, spec);
    }
  };
  if (num_threads() > 1 && batch > 1) {
    parallel_for(batch, run_sample);
  } else {
    for (std::int64_t n = 0; n < batch; ++n) run_sample(n);
  }
  // Fixed-order reduction (sample 0, 1, 2, ...) — deterministic at any
  // thread count.
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* dw = dw_partials + n * cout * patch;
    float* gw = grad_weight.data();
    for (std::int64_t i = 0; i < cout * patch; ++i) gw[i] += dw[i];
    if (db_partials != nullptr) {
      const float* db = db_partials + n * cout;
      for (std::int64_t c = 0; c < cout; ++c) (*grad_bias)[c] += db[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Sparsity-aware spike dispatch.
// ---------------------------------------------------------------------------

namespace {

std::int64_t count_nonzeros_raw(const float* data, std::int64_t n) {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) count += (data[i] != 0.0F) ? 1 : 0;
  return count;
}

/// Event-style sparse convolution of one sample: every nonzero input pixel
/// scatters its weight column into the [OHW, Cout] output. `wt` is the
/// transposed weight [Cin*K*K, Cout]; `out_t` must be zeroed.
void conv_sample_sparse(const float* img, const float* wt, float* out_t,
                        const Conv2dSpec& spec, std::int64_t height,
                        std::int64_t width) {
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const std::int64_t k = spec.kernel;
  const std::int64_t cout = spec.out_channels;
  for (std::int64_t ci = 0; ci < spec.in_channels; ++ci) {
    const float* ch = img + ci * height * width;
    for (std::int64_t y = 0; y < height; ++y) {
      for (std::int64_t x = 0; x < width; ++x) {
        const float v = ch[y * width + x];
        if (v == 0.0F) continue;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t ty = y + spec.pad - ky;
          if (ty < 0) break;  // ty only decreases with ky
          if (ty % spec.stride != 0) continue;
          const std::int64_t oy = ty / spec.stride;
          if (oy >= oh) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t tx = x + spec.pad - kx;
            if (tx < 0) break;
            if (tx % spec.stride != 0) continue;
            const std::int64_t ox = tx / spec.stride;
            if (ox >= ow) continue;
            float* dst = out_t + (oy * ow + ox) * cout;
            const float* wrow = wt + ((ci * k + ky) * k + kx) * cout;
            for (std::int64_t co = 0; co < cout; ++co) dst[co] += v * wrow[co];
          }
        }
      }
    }
  }
}

/// W [rows, cols] -> W^T [cols, rows], in square tiles so both the reads and
/// the strided writes stay in L1. 16 rows of a power-of-two stride still fit
/// the L1 ways they alias into; 32 do not, and run as slowly as no tiling.
void transpose_weight(const float* w, std::int64_t rows, std::int64_t cols,
                      float* wt) {
  constexpr std::int64_t kTile = 16;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = std::min(rows, r0 + kTile);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = std::min(cols, c0 + kTile);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) wt[c * rows + r] = w[r * cols + c];
      }
    }
  }
}

void check_qweight(const QuantizedPackedB* qweight, std::int64_t k, std::int64_t n,
                   const char* who) {
  if (qweight != nullptr && (qweight->k() != k || qweight->n() != n)) {
    throw std::invalid_argument(std::string(who) + ": quantized weight is " +
                                std::to_string(qweight->k()) + "x" +
                                std::to_string(qweight->n()) + ", expected " +
                                std::to_string(k) + "x" + std::to_string(n));
  }
}

/// Body shared by both conv2d_forward_spiking forms. `wt` is the [patch, Cout]
/// transposed weight; dense fp32 samples that put the channels on the lanes
/// use `panels` when given, else pack `wt` into the arena for this call.
void conv_spiking(const Tensor& input, const float* wt, const PackedB* panels,
                  const QuantizedPackedB* qweight, Tensor& output,
                  const Conv2dSpec& spec, float density_threshold,
                  SpikeKernelStats& stats) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t ohw = spec.out_extent(height) * spec.out_extent(width);
  const std::int64_t cout = spec.out_channels;
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::int64_t chw = spec.in_channels * height * width;
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  // Dense samples need W^T's packed panels only at fp32 with the channels on
  // the lanes; otherwise skip the packing work entirely.
  PackedB wt_packed;
  if (qweight == nullptr && panels == nullptr && !conv_pixels_on_lanes(cout, ohw)) {
    wt_packed.pack(row_major(wt, cout), patch, cout, arena);
    panels = &wt_packed;
  }
  const std::int64_t* offsets = patch_offsets(spec, height, width, arena);
  std::int64_t* nnz = arena.alloc_indices(static_cast<std::size_t>(batch));
  const auto run_sample = [&](std::int64_t n) {
    Arena& local = thread_arena();
    ArenaScope sample_scope(local);
    const float* img = input.data() + n * chw;
    // The dispatch scan doubles as the activity count: data is streamed once
    // and the exact nonzero tally comes out for free.
    const std::int64_t sample_nnz = count_nonzeros_raw(img, chw);
    nnz[n] = sample_nnz;
    const bool sparse = static_cast<double>(sample_nnz) <=
                        static_cast<double>(density_threshold) * static_cast<double>(chw);
    float* out = output.data() + n * cout * ohw;
    if (sparse) {
      float* out_t = local.alloc_floats_zeroed(static_cast<std::size_t>(ohw * cout));
      conv_sample_sparse(img, wt, out_t, spec, height, width);
      transpose_to_nchw(out_t, out, nullptr, cout, ohw);
    } else {
      conv_sample_dense(img, offsets, transposed(wt, cout), panels, qweight, nullptr, out,
                        spec, height, width, local);
    }
  };
  if (num_threads() > 1 && batch > 1) {
    parallel_for(batch, run_sample);
  } else {
    for (std::int64_t n = 0; n < batch; ++n) run_sample(n);
  }
  const double threshold = static_cast<double>(density_threshold);
  for (std::int64_t n = 0; n < batch; ++n) {
    stats.nonzeros += nnz[n];
    const bool sparse =
        static_cast<double>(nnz[n]) <= threshold * static_cast<double>(chw);
    if (sparse) {
      ++stats.sparse_samples;
    } else {
      ++stats.dense_samples;
    }
  }
  stats.elements += batch * chw;
  ULLSNN_COUNTER_ADD("kernel.conv.spike_dispatch", batch);
}

/// Body shared by both linear_forward_spiking forms. `transposed_weight()`
/// yields the [in, out] W^T and is called only when the sparse kernel runs;
/// dense fp32 inputs run the blocked GEMM at every batch size, on `panels`
/// when given, else packing W^T per call (the same panels, so the same bits).
template <typename TransposedWeight>
void linear_spiking(const Tensor& input, const Tensor& weight,
                    TransposedWeight&& transposed_weight, const PackedB* panels,
                    const QuantizedPackedB* qweight, Tensor& output,
                    float density_threshold, SpikeKernelStats& stats) {
  const std::int64_t m = input.dim(0);
  const std::int64_t in = weight.dim(1);
  const std::int64_t out = weight.dim(0);
  // The dispatch scan doubles as the activity count (see conv above).
  const std::int64_t nnz = count_nonzeros_raw(input.data(), m * in);
  stats.nonzeros += nnz;
  stats.elements += m * in;
  const bool sparse = static_cast<double>(nnz) <=
                      static_cast<double>(density_threshold) *
                          static_cast<double>(m * in);
  if (sparse) {
    spmm_row_compressed(input.data(), transposed_weight(), output.data(), m, in, out,
                        /*accumulate=*/false);
    stats.sparse_samples += m;
  } else {
    if (qweight != nullptr) {
      gemm_packed_int8(row_major(input.data(), in), *qweight, output.data(), m,
                       /*accumulate=*/false);
    } else if (panels != nullptr) {
      gemm_packed(row_major(input.data(), in), *panels, output.data(), m,
                  /*accumulate=*/false);
    } else {
      gemm(row_major(input.data(), in), transposed(weight.data(), in), output.data(), m,
           in, out, /*accumulate=*/false);
    }
    stats.dense_samples += m;
  }
  ULLSNN_COUNTER_ADD("kernel.linear.spike_dispatch", m);
}

const QuantizedPackedB* prepared_int8(const PreparedWeight& prepared,
                                      Precision precision, const char* who) {
  if (precision != Precision::kInt8) return nullptr;
  const QuantizedPackedB* q = prepared.int8_panels();
  if (q == nullptr) {
    throw std::invalid_argument(std::string(who) +
                                ": int8 requested but the weight has no int8 panels");
  }
  return q;
}

}  // namespace

PreparedWeight::PreparedWeight(const float* w, std::int64_t rows, std::int64_t cols,
                               Precision precision, const QuantizedWeight* quantized)
    : source_(w),
      rows_(rows),
      cols_(cols),
      wt_(static_cast<std::size_t>(rows * cols)) {
  transpose_weight(w, rows, cols, wt_.data());
  if (precision == Precision::kInt8) {
    if (quantized != nullptr && (quantized->rows != rows || quantized->cols != cols)) {
      throw std::invalid_argument("PreparedWeight: quantized weight is " +
                                  std::to_string(quantized->rows) + "x" +
                                  std::to_string(quantized->cols) + ", expected " +
                                  std::to_string(rows) + "x" + std::to_string(cols));
    }
    int8_.pack(quantized != nullptr ? *quantized
                                    : quantize_weight_per_row(w, rows, cols));
    has_int8_ = true;
  } else {
    panel_storage_.resize(PackedB::packed_floats(cols, rows));
    fp32_.pack(row_major(wt_.data(), rows), cols, rows, panel_storage_.data());
    has_fp32_ = true;
  }
}

const PackedB* PreparedWeight::fp32_panels() const {
  return has_fp32_ && fp32_.packed_for_active_plan() ? &fp32_ : nullptr;
}

void conv2d_forward_spiking(const Tensor& input, const PreparedWeight& prepared,
                            Tensor& output, const Conv2dSpec& spec,
                            float density_threshold, Precision precision,
                            SpikeKernelStats& stats) {
  check_conv_input(input, spec, "conv2d_forward_spiking");
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (prepared.rows() != spec.out_channels || prepared.cols() != patch) {
    throw std::invalid_argument("conv2d_forward_spiking: prepared weight is " +
                                std::to_string(prepared.rows()) + "x" +
                                std::to_string(prepared.cols()) + ", expected " +
                                std::to_string(spec.out_channels) + "x" +
                                std::to_string(patch));
  }
  conv_spiking(input, prepared.transposed(), prepared.fp32_panels(),
               prepared_int8(prepared, precision, "conv2d_forward_spiking"), output,
               spec, density_threshold, stats);
}

void linear_forward_spiking(const Tensor& input, const Tensor& weight,
                            const PreparedWeight& prepared, Tensor& output,
                            float density_threshold, Precision precision,
                            SpikeKernelStats& stats) {
  if (prepared.rows() != weight.dim(0) || prepared.cols() != weight.dim(1)) {
    throw std::invalid_argument("linear_forward_spiking: prepared weight is " +
                                std::to_string(prepared.rows()) + "x" +
                                std::to_string(prepared.cols()) + ", weight is " +
                                shape_to_string(weight.shape()));
  }
  linear_spiking(
      input, weight, [&] { return prepared.transposed(); }, prepared.fp32_panels(),
      prepared_int8(prepared, precision, "linear_forward_spiking"), output,
      density_threshold, stats);
}

void conv2d_forward_spiking(const Tensor& input, const Tensor& weight,
                            Tensor& output, const Conv2dSpec& spec,
                            float density_threshold,
                            std::vector<float>& wt_cache,
                            SpikeKernelStats& stats,
                            const QuantizedPackedB* qweight) {
  const std::int64_t cout = spec.out_channels;
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  check_conv_input(input, spec, "conv2d_forward_spiking");
  if (wt_cache.empty()) {
    // [Cout, patch] -> [patch, Cout]; rebuilt only after the caller clears
    // it, so the transpose amortizes over the T time steps.
    wt_cache.resize(static_cast<std::size_t>(patch * cout));
    transpose_weight(weight.data(), cout, patch, wt_cache.data());
  }
  check_qweight(qweight, patch, cout, "conv2d_forward_spiking");
  conv_spiking(input, wt_cache.data(), /*panels=*/nullptr, qweight, output, spec,
               density_threshold, stats);
}

void linear_forward_spiking(const Tensor& input, const Tensor& weight,
                            Tensor& output, float density_threshold,
                            std::vector<float>& wt_cache,
                            SpikeKernelStats& stats,
                            const QuantizedPackedB* qweight) {
  const std::int64_t in = weight.dim(1);
  const std::int64_t out = weight.dim(0);
  check_qweight(qweight, in, out, "linear_forward_spiking");
  const auto transposed_weight = [&] {
    if (wt_cache.empty()) {
      wt_cache.resize(static_cast<std::size_t>(in * out));
      transpose_weight(weight.data(), out, in, wt_cache.data());
    }
    return static_cast<const float*>(wt_cache.data());
  };
  linear_spiking(input, weight, transposed_weight, /*panels=*/nullptr, qweight,
                 output, density_threshold, stats);
}

// ---------------------------------------------------------------------------
// Pooling. Each [H,W] plane is independent, so the kernels parallelize over
// batch*channels planes; outputs (and argmax/grad slices) are disjoint, which
// keeps every thread-count bitwise deterministic.
// ---------------------------------------------------------------------------

void validate_pool_geometry(const Pool2dSpec& spec, std::int64_t height,
                            std::int64_t width) {
  const bool ok = spec.kernel > 0 && spec.stride > 0 && spec.kernel <= height &&
                  spec.kernel <= width && (height - spec.kernel) % spec.stride == 0 &&
                  (width - spec.kernel) % spec.stride == 0;
  if (!ok) {
    throw std::invalid_argument(
        "pool geometry k=" + std::to_string(spec.kernel) + " s=" +
        std::to_string(spec.stride) + " does not tile " + std::to_string(height) +
        "x" + std::to_string(width) + " exactly (trailing rows/cols would be "
        "silently dropped)");
  }
}

namespace {
void for_each_plane(std::int64_t planes, const std::function<void(std::int64_t)>& fn) {
  if (num_threads() > 1 && planes > 1) {
    parallel_for(planes, fn);
  } else {
    for (std::int64_t nc = 0; nc < planes; ++nc) fn(nc);
  }
}

/// Eval 2x2/2 max pool (every max pool in the model zoo) of output rows
/// [r0, r1) of a tensor whose planes have exactly twice as many input rows as
/// output rows, so output row r reads input rows 2r and 2r+1 of the whole
/// tensor viewed as [rows, width]. The generic loop's compare chain from -inf
/// in window order, unrolled, so the compiler vectorizes it across ox and NaN,
/// ties and signed zeros still resolve exactly as there.
void maxpool_2x2_rows(const float* in, float* out, std::int64_t r0, std::int64_t r1,
                      std::int64_t width, std::int64_t ow) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* a = in + 2 * r * width;
    const float* b = a + width;
    float* dst = out + r * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float best = -std::numeric_limits<float>::infinity();
      best = a[2 * ox] > best ? a[2 * ox] : best;
      best = a[2 * ox + 1] > best ? a[2 * ox + 1] : best;
      best = b[2 * ox] > best ? b[2 * ox] : best;
      best = b[2 * ox + 1] > best ? b[2 * ox + 1] : best;
      dst[ox] = best;
    }
  }
}
}  // namespace

void maxpool2d_forward(const Tensor& input, Tensor& output, const Pool2dSpec& spec,
                       std::vector<std::int64_t>* argmax) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  if (argmax != nullptr) {
    argmax->resize(static_cast<std::size_t>(batch * channels * oh * ow));
  }
  std::int64_t* best_at = argmax != nullptr ? argmax->data() : nullptr;
  float* out = output.data();
  const std::int64_t planes = batch * channels;
  if (best_at == nullptr && spec.kernel == 2 && spec.stride == 2 && height == 2 * oh) {
    // One flat loop over all planes' output rows; plane-parallel when
    // threaded, with the same row body.
    if (num_threads() > 1 && planes > 1) {
      parallel_for(planes, [&](std::int64_t nc) {
        maxpool_2x2_rows(input.data(), out, nc * oh, (nc + 1) * oh, width, ow);
      });
    } else {
      maxpool_2x2_rows(input.data(), out, 0, planes * oh, width, ow);
    }
    return;
  }
  for_each_plane(planes, [&](std::int64_t nc) {
    const float* plane = input.data() + nc * height * width;
    const std::int64_t plane_base = nc * height * width;
    std::int64_t out_idx = nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = -1;
        for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
          const std::int64_t iy = oy * spec.stride + ky;
          const float* row = plane + iy * width + ox * spec.stride;
          const std::int64_t row_base = plane_base + iy * width + ox * spec.stride;
          for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
            // Strict > keeps the first maximum (and skips NaN), so the value
            // kept is the same with or without index tracking.
            const float v = row[kx];
            if (best_at == nullptr) {
              best = v > best ? v : best;
            } else if (v > best) {
              best = v;
              best_idx = row_base + kx;
            }
          }
        }
        out[out_idx] = best;
        if (best_at != nullptr) best_at[out_idx] = best_idx;
      }
    }
  });
}

void maxpool2d_backward(const Tensor& grad_output,
                        const std::vector<std::int64_t>& argmax,
                        Tensor& grad_input) {
  grad_input.fill(0.0F);
  const std::int64_t planes = grad_output.dim(0) * grad_output.dim(1);
  const std::int64_t out_plane = grad_output.dim(2) * grad_output.dim(3);
  // Argmax targets recorded by the forward pass stay inside their own input
  // plane, so the plane-parallel scatter writes disjoint regions. A window
  // with no maximum (all NaN or -inf) recorded -1: its output is a constant
  // -inf, so it passes no gradient.
  for_each_plane(planes, [&](std::int64_t nc) {
    for (std::int64_t i = nc * out_plane; i < (nc + 1) * out_plane; ++i) {
      const std::int64_t at = argmax[static_cast<std::size_t>(i)];
      if (at >= 0) grad_input[at] += grad_output[i];
    }
  });
}

void avgpool2d_forward(const Tensor& input, Tensor& output, const Pool2dSpec& spec) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  const float inv = 1.0F / static_cast<float>(spec.kernel * spec.kernel);
  for_each_plane(batch * channels, [&](std::int64_t nc) {
    const float* plane = input.data() + nc * height * width;
    std::int64_t out_idx = nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
        float acc = 0.0F;
        for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
          const float* row =
              plane + (oy * spec.stride + ky) * width + ox * spec.stride;
          for (std::int64_t kx = 0; kx < spec.kernel; ++kx) acc += row[kx];
        }
        output[out_idx] = acc * inv;
      }
    }
  });
}

void avgpool2d_backward(const Tensor& grad_output, Tensor& grad_input,
                        const Pool2dSpec& spec) {
  grad_input.fill(0.0F);
  const std::int64_t batch = grad_output.dim(0);
  const std::int64_t channels = grad_output.dim(1);
  const std::int64_t oh = grad_output.dim(2);
  const std::int64_t ow = grad_output.dim(3);
  const std::int64_t height = grad_input.dim(2);
  const std::int64_t width = grad_input.dim(3);
  const float inv = 1.0F / static_cast<float>(spec.kernel * spec.kernel);
  for_each_plane(batch * channels, [&](std::int64_t nc) {
    float* plane = grad_input.data() + nc * height * width;
    std::int64_t out_idx = nc * oh * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++out_idx) {
        const float g = grad_output[out_idx] * inv;
        for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
          float* row = plane + (oy * spec.stride + ky) * width + ox * spec.stride;
          for (std::int64_t kx = 0; kx < spec.kernel; ++kx) row[kx] += g;
        }
      }
    }
  });
}

}  // namespace ullsnn
