#pragma once
// Admission queue: the dispatcher's concurrent front door.
//
// Many client threads submit BLAS requests and receive futures; one
// worker thread drains the queue in cycles (with a one-yield second
// sweep per cycle so a producer burst caught mid-flight lands in one
// cycle instead of dribbling through many). The channel itself is a
// one-shard dispatch::ShardedQueue — the same template the serve layer
// fans out across N device shards. Each cycle is cut into hazard-free
// segments that run one after another in submission order: a request
// opens a new segment when its operands overlap the output of an
// earlier request in the segment, or its output overlaps an earlier
// request's operands (a conservative byte-span test on the operand
// regions). Within a segment the worker
//  1. coalesces same-shape small GEMMs into a single blas::gemm_batched
//     submission (the paper's §V future-work observation that batching
//     "can greatly improve GEMM performance for small problem sizes"),
//     and same-shape small GEMVs into one blas::gemv_batched submission
//     (one fork/join amortised across the group — the biggest relative
//     win, since a small GEMV is all overhead),
//  2. plans the remaining requests through the decision table,
//  3. enqueues every GPU-routed request on the simulated device WITHOUT
//     synchronising, then runs all CPU-routed work while those virtual
//     transfers/kernels are in flight, and only then joins the GPU jobs —
//     transfer/compute overlap in the cudaMemcpyAsync style.
// No member of a segment touches another member's output, so neither the
// batched kernels' threads nor the deferred GPU unpacks can reorder the
// writes to one buffer: callers keep their sequential semantics.
//
// Results are published through the futures strictly after the output
// buffer has been written (for GPU routes, after the staged download is
// unpacked), so a client that waits on its future always reads a
// complete result.

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>

#include "dispatch/dispatcher.hpp"
#include "dispatch/sharded_queue.hpp"

namespace blob::dispatch {

struct AdmissionQueueConfig {
  /// Requests drained per worker cycle (the coalescing window).
  std::size_t max_drain = 32;
  /// Same-shape CPU-eligible GEMM/GEMV groups of at least this size are
  /// merged into one batched submission.
  int coalesce_min = 4;
  /// Only calls with every dimension at or below this coalesce — large
  /// problems are better served by the per-call routing decision.
  int coalesce_max_dim = 128;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(Dispatcher& dispatcher,
                          AdmissionQueueConfig config = {});
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // -- asynchronous submission (thread-safe) -------------------------------
  // The caller keeps all operand buffers alive until the returned future
  // resolves. Dims are validated here (std::invalid_argument) and the
  // calling thread's error budget is captured with the request.
  template <typename T>
  std::future<void> submit_gemm(blas::Transpose ta, blas::Transpose tb,
                                int m, int n, int k, T alpha, const T* a,
                                int lda, const T* b, int ldb, T beta, T* c,
                                int ldc) {
    return push(Call::gemm<T>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                              c, ldc, dispatcher_.effective_mode()));
  }
  template <typename T>
  std::future<void> submit_gemv(blas::Transpose ta, int m, int n, T alpha,
                                const T* a, int lda, const T* x, int incx,
                                T beta, T* y, int incy) {
    return push(Call::gemv<T>(ta, m, n, alpha, a, lda, x, incx, beta, y,
                              incy, dispatcher_.effective_mode()));
  }

  /// Block until every request submitted so far has completed.
  void flush();

  /// Drain outstanding work and join the worker (idempotent; the
  /// destructor calls it).
  void stop();

  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t completed() const;

 private:
  struct Request {
    Call call;
    std::promise<void> done;
    /// obs::now_ns() at push() when tracing is on (0 otherwise); the
    /// drain cycle turns it into the admission-wait histogram.
    std::int64_t submit_ns = 0;
  };

  std::future<void> push(Call call);
  void worker_loop();
  void drain_cycle(std::vector<Request>& batch);
  /// Coalesce, plan and run batch[begin, end): one hazard-free segment.
  void run_segment(std::vector<Request>& batch, std::size_t begin,
                   std::size_t end);

  /// True when the call qualifies for CPU-batched coalescing.
  /// Transposed GEMMs/GEMVs coalesce like NN ones — the batched
  /// primitives take the flags — so layout never disqualifies a group,
  /// only size does. Strided GEMV vectors coalesce too (gemv_batched
  /// stages them); unequal increments land in different groups.
  [[nodiscard]] bool coalescible(const core::OpDesc& desc) const;

  Dispatcher& dispatcher_;
  AdmissionQueueConfig config_;

  /// The MPMC channel (one shard here — the dispatcher has one device;
  /// serve::DeviceFleet instantiates the same template with N shards).
  ShardedQueue<Request> queue_{1};
  mutable std::mutex mutex_;         ///< guards the counters below
  std::condition_variable idle_cv_;  ///< flush() wake-up
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::thread worker_;
};

}  // namespace blob::dispatch
