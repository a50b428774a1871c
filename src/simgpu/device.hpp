#pragma once
// SimGpu: a functional-plus-timed GPU device.
//
// Kernels execute numerically on host-backed storage (so results and
// checksums are real, matching GPU-BLOB's CPU/GPU validation, §III-B) but
// elapsed time comes from the analytic GpuModel/LinkModel. For very large
// problems the numeric execution can be skipped (`functional_dim_limit`)
// so virtual-time sweeps to d=4096 stay fast; timing is unaffected.
//
// The device owns a host-side virtual clock and a default stream. All
// public operations advance virtual time; none sleep.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blas/half.hpp"
#include "blas/types.hpp"
#include "perfmodel/gpu_model.hpp"
#include "perfmodel/link_model.hpp"
#include "perfmodel/precision.hpp"
#include "simgpu/memory.hpp"
#include "simgpu/stream.hpp"
#include "util/timer.hpp"

namespace blob::sim {

/// Scalar type of a kernel's alpha/beta: half kernels accumulate in f32
/// (HMMA-with-FP32-accumulate semantics, see blas/half_gemm.hpp), so
/// their scalars are float; f32/f64 kernels take their own type.
template <typename T>
struct KernelScalar {
  using type = T;
};
template <>
struct KernelScalar<blas::f16> {
  using type = float;
};
template <>
struct KernelScalar<blas::bf16> {
  using type = float;
};
template <typename T>
using kernel_scalar_t = typename KernelScalar<T>::type;

class SimGpu {
 public:
  struct Config {
    model::GpuModel gpu;
    model::LinkModel link;
    /// Execute kernels numerically (false = timing-only sweeps).
    bool functional = true;
    /// Skip numeric execution above this effective dimension even when
    /// functional (keeps full-range sweeps tractable on one core).
    double functional_dim_limit = 1024.0;
    /// Record every operation into the device's TraceSink (see trace()).
    bool trace = false;
  };

  explicit SimGpu(Config config);

  [[nodiscard]] const model::GpuModel& gpu_model() const {
    return config_.gpu;
  }
  [[nodiscard]] const model::LinkModel& link_model() const {
    return config_.link;
  }
  [[nodiscard]] util::SimClock& clock() { return clock_; }
  [[nodiscard]] Stream& default_stream() { return stream_; }
  [[nodiscard]] MemoryTracker& memory() { return tracker_; }
  [[nodiscard]] const MemoryTracker& memory() const { return tracker_; }
  [[nodiscard]] const TraceSink& trace() const { return trace_; }

  /// Create an additional stream (cudaStreamCreate analogue). The
  /// returned reference stays valid for the device's lifetime.
  Stream& create_stream(std::string name);

  /// Current host virtual time in seconds.
  [[nodiscard]] double now() const { return clock_.now(); }

  // -- allocation ----------------------------------------------------------

  Buffer alloc_host(std::size_t bytes, bool pinned = true);
  Buffer alloc_device(std::size_t bytes);
  Buffer alloc_managed(std::size_t bytes);

  // -- explicit transfers (synchronous: host blocks until complete) --------

  /// Copy a host buffer into a device buffer. Pinned-ness of the host
  /// side sets the bandwidth (paper §III-B2 uses pinned throughout).
  void memcpy_h2d(Buffer& dst, const Buffer& src, std::size_t bytes);
  void memcpy_d2h(Buffer& dst, const Buffer& src, std::size_t bytes);

  // -- asynchronous transfers (enqueue on a stream; host not blocked) ----
  // The payload is copied eagerly (the simulator has no real DMA engine),
  // so reading the destination before synchronizing observes the data
  // early — only the *timing* is asynchronous, which is what the
  // overlap experiments measure. Returns the op's completion time.
  double memcpy_h2d_async(Stream& stream, Buffer& dst, const Buffer& src,
                          std::size_t bytes);
  double memcpy_d2h_async(Stream& stream, Buffer& dst, const Buffer& src,
                          std::size_t bytes);

  // -- managed-memory residency --------------------------------------------

  /// Host touches a managed buffer (read or write): migrates pages back
  /// if the device holds them. Called by the harness before validating.
  void host_access_managed(Buffer& buffer);

  /// Reset a managed buffer to host residency without cost (test setup).
  static void reset_managed(Buffer& buffer);

  // -- kernels ---------------------------------------------------------------
  // Transposed operands are first-class: op(A)/op(B) follow the usual
  // column-major BLAS convention, and GpuModel charges the coalescing
  // penalty for transposed layouts. T may be float, double, blas::f16 or
  // blas::bf16; half kernels take float scalars (see KernelScalar).

  /// Enqueue C = alpha * op(A) * op(B) + beta * C (column major).
  /// Operands must be Device or Managed buffers; managed operands
  /// fault-migrate on first device touch. Returns the kernel's
  /// model-predicted duration in seconds. `stream` = nullptr enqueues on
  /// the default stream.
  template <typename T>
  double gemm(blas::Transpose ta, blas::Transpose tb, int m, int n, int k,
              kernel_scalar_t<T> alpha, Buffer& a, int lda, Buffer& b,
              int ldb, kernel_scalar_t<T> beta, Buffer& c, int ldc,
              Stream* stream = nullptr);

  /// NN convenience overload (legacy call sites).
  template <typename T>
  double gemm(int m, int n, int k, T alpha, Buffer& a, int lda, Buffer& b,
              int ldb, T beta, Buffer& c, int ldc, Stream* stream = nullptr) {
    return gemm<T>(blas::Transpose::No, blas::Transpose::No, m, n, k, alpha,
                   a, lda, b, ldb, beta, c, ldc, stream);
  }

  /// Enqueue C = alpha * op(A) * op(B) + beta * C computed by EMULATED
  /// fp64: operands are sliced into `slices` fp32 components and the
  /// product assembled from slices*(slices+1)/2 fp32 GEMMs
  /// (blas::emulated_gemm). Numerics follow the sliced path exactly —
  /// results carry the documented relative-error bound, NOT bitwise
  /// fp64 — and timing follows GpuModel::gemm_emulated_kernel_time.
  /// Same operand rules as gemm<double>.
  double gemm_emulated(blas::Transpose ta, blas::Transpose tb, int m, int n,
                       int k, double alpha, Buffer& a, int lda, Buffer& b,
                       int ldb, double beta, Buffer& c, int ldc, int slices,
                       Stream* stream = nullptr);

  /// Enqueue y = alpha * op(A) * x + beta * y. A is the stored m x n
  /// matrix; ta selects A*x or A^T*x. Same operand rules as gemm.
  template <typename T>
  double gemv(blas::Transpose ta, int m, int n, kernel_scalar_t<T> alpha,
              Buffer& a, int lda, Buffer& x, kernel_scalar_t<T> beta,
              Buffer& y, Stream* stream = nullptr);

  /// No-transpose convenience overload (legacy call sites).
  template <typename T>
  double gemv(int m, int n, T alpha, Buffer& a, int lda, Buffer& x, T beta,
              Buffer& y, Stream* stream = nullptr) {
    return gemv<T>(blas::Transpose::No, m, n, alpha, a, lda, x, beta, y,
                   stream);
  }

  /// Enqueue ONE batched-GEMM kernel over strided operands (the
  /// cublasGemmStridedBatched analogue): problem b reads/writes at
  /// base + b * stride elements. A single launch; device fill follows
  /// the aggregate size (see GpuModel::gemm_batched_kernel_time).
  template <typename T>
  double gemm_strided_batched(blas::Transpose ta, blas::Transpose tb, int m,
                              int n, int k, kernel_scalar_t<T> alpha,
                              Buffer& a, int lda, std::int64_t stride_a,
                              Buffer& b, int ldb, std::int64_t stride_b,
                              kernel_scalar_t<T> beta, Buffer& c, int ldc,
                              std::int64_t stride_c, int batch,
                              Stream* stream = nullptr);

  /// NN convenience overload (legacy call sites).
  template <typename T>
  double gemm_strided_batched(int m, int n, int k, T alpha, Buffer& a,
                              int lda, std::int64_t stride_a, Buffer& b,
                              int ldb, std::int64_t stride_b, T beta,
                              Buffer& c, int ldc, std::int64_t stride_c,
                              int batch, Stream* stream = nullptr) {
    return gemm_strided_batched<T>(blas::Transpose::No, blas::Transpose::No,
                                   m, n, k, alpha, a, lda, stride_a, b, ldb,
                                   stride_b, beta, c, ldc, stride_c, batch,
                                   stream);
  }

  /// Enqueue ONE batched-GEMV kernel over strided operands (the
  /// cublasSgemvStridedBatched analogue): item b reads A at
  /// a + b * stride_a, x at x + b * stride_x and writes y at
  /// y + b * stride_y (all unit-increment vectors). A single launch;
  /// the bandwidth ramp follows the aggregate size (see
  /// GpuModel::gemv_batched_kernel_time).
  template <typename T>
  double gemv_strided_batched(blas::Transpose ta, int m, int n,
                              kernel_scalar_t<T> alpha, Buffer& a, int lda,
                              std::int64_t stride_a, Buffer& x,
                              std::int64_t stride_x, kernel_scalar_t<T> beta,
                              Buffer& y, std::int64_t stride_y, int batch,
                              Stream* stream = nullptr);

  /// Block the host until all device work completes.
  void synchronize() { stream_.synchronize(); }

  /// Kernel-launch count since construction.
  [[nodiscard]] std::size_t kernels_launched() const { return kernels_; }

  /// Cumulative explicit-transfer traffic since construction (both the
  /// blocking and async paths; USM migrations are not counted here).
  [[nodiscard]] std::size_t h2d_bytes_total() const { return h2d_bytes_; }
  [[nodiscard]] std::size_t d2h_bytes_total() const { return d2h_bytes_; }

 private:
  template <typename T>
  static model::Precision precision_of();

  /// Charge USM migration for a kernel operand and flip residency.
  double managed_in_cost(Buffer& buffer);
  void require_device_visible(const Buffer& buffer, const char* what) const;

  Config config_;
  util::SimClock clock_;
  TraceSink trace_;
  Stream stream_;
  std::vector<std::unique_ptr<Stream>> extra_streams_;
  MemoryTracker tracker_;
  std::size_t kernels_ = 0;
  std::size_t h2d_bytes_ = 0;
  std::size_t d2h_bytes_ = 0;
};

}  // namespace blob::sim
