#pragma once
// DeviceFleet: N simulated GPUs behind one sharded admission front door.
//
// Each device is a full dispatch::Dispatcher — its own simgpu instance
// and stream, decision table, residency tracker, and (per-tenant)
// calibration store — built from its own sysprofile personality, so a
// DAWN-like and a LUMI-like card can serve side by side in one box.
// Producers submit through the Router, which scores devices by modelled
// cost + outstanding modelled work and stamps the winner on the
// request; the request then lands on that device's shard of one
// ShardedQueue, where the device's worker thread drains it in FIFO
// order. The bounded shards give backpressure (submit blocks while the
// chosen device is saturated); the SLO policy gives load-shedding (a
// request whose deadline has already passed when the worker dequeues it
// is shed unexecuted — capacity goes to requests that can still make
// their SLO, and shedding NEVER preempts work that is merely late-ish:
// only past-deadline requests are dropped).
//
// A 1-device fleet is bit-identical to a lone Dispatcher fed the same
// calls in the same order: the router degenerates to "device 0", the
// worker replays submissions FIFO through the same Dispatcher::run entry
// point, and device id 0 keeps the legacy noise streams.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "dispatch/sharded_queue.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"

namespace blob::serve {

struct FleetConfig {
  /// One system profile per device (heterogeneous mixes welcome); the
  /// fleet size is this vector's size. Must be non-empty.
  std::vector<profile::SystemProfile> devices;
  /// Template dispatcher configuration; per-device fields (profile,
  /// device_id, nspace, calibration_path) are overridden per device.
  dispatch::DispatcherConfig base;
  SloPolicy slo;
  /// Per-shard admission bound: submit blocks (backpressure) while the
  /// chosen device already has this many queued requests. 0 = unbounded.
  std::size_t queue_capacity = 1024;
  /// Requests a worker drains per cycle.
  std::size_t max_drain = 16;
  /// Tenant namespace: stamps each device's calibration store and the
  /// per-device store file names.
  std::string tenant;
  /// When non-empty, device i loads "<prefix>[.<tenant>].dev<i>.json" at
  /// construction and save_calibration() writes the same paths.
  std::string calibration_prefix;
};

/// Per-device slice of a stats snapshot.
struct DeviceStats {
  std::string profile;
  dispatch::DispatchStats dispatch;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  double outstanding_s = 0.0;
  std::size_t queue_depth = 0;
  /// Modelled seconds this device actually spent (cpu + gpu accounted).
  double busy_s = 0.0;
};

struct FleetStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// Fleet-aware oracle: sum over requests of the cheapest modelled cost
  /// any device offered at admission time (zero load assumed) — the
  /// regret baseline.
  double oracle_s = 0.0;
  /// Sum of the router's chosen-device estimates (what routing committed).
  double routed_est_s = 0.0;
  double busy_s = 0.0;      ///< total modelled seconds spent, all devices
  double makespan_s = 0.0;  ///< max per-device busy_s: the modelled
                            ///< completion time of the whole run, so
                            ///< work/makespan is the scaling throughput
  std::vector<DeviceStats> devices;
};

class DeviceFleet {
 public:
  explicit DeviceFleet(FleetConfig config);
  ~DeviceFleet();

  DeviceFleet(const DeviceFleet&) = delete;
  DeviceFleet& operator=(const DeviceFleet&) = delete;

  // -- asynchronous submission (thread-safe) -------------------------------
  // The caller keeps all operand buffers alive and un-aliased until the
  // returned future resolves. T is float or double. The calling thread's
  // error budget travels with the request.
  template <typename T>
  std::future<ServeResult> submit_gemm(RequestClass cls, blas::Transpose ta,
                                       blas::Transpose tb, int m, int n,
                                       int k, T alpha, const T* a, int lda,
                                       const T* b, int ldb, T beta, T* c,
                                       int ldc) {
    return admit(cls, dispatch::Call::gemm<T>(ta, tb, m, n, k, alpha, a, lda,
                                              b, ldb, beta, c, ldc, mode()));
  }
  template <typename T>
  std::future<ServeResult> submit_gemv(RequestClass cls, blas::Transpose ta,
                                       int m, int n, T alpha, const T* a,
                                       int lda, const T* x, int incx, T beta,
                                       T* y, int incy) {
    return admit(cls, dispatch::Call::gemv<T>(ta, m, n, alpha, a, lda, x,
                                              incx, beta, y, incy, mode()));
  }

  /// Block until every admitted request has resolved (completed or shed).
  void flush();

  /// Drain outstanding work and join the workers (idempotent; the
  /// destructor calls it).
  void stop();

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] dispatch::Dispatcher& device(std::size_t i) {
    return *devices_[i]->dispatcher;
  }
  [[nodiscard]] const dispatch::Dispatcher& device(std::size_t i) const {
    return *devices_[i]->dispatcher;
  }

  [[nodiscard]] FleetStats stats() const;

  /// Write every device's calibration store (no-op without a prefix).
  /// Returns false when any file could not be written.
  bool save_calibration() const;

  /// "<prefix>[.<tenant>].dev<i>.json".
  [[nodiscard]] static std::string calibration_path(const FleetConfig& config,
                                                    std::size_t device);

 private:
  struct PerDevice {
    std::unique_ptr<dispatch::Dispatcher> dispatcher;
    std::atomic<double> outstanding_s{0.0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> shed{0};
    std::thread worker;
  };

  /// Transfer mode stamped at submit. Every device shares the base
  /// config's residency policy, so device 0 speaks for all of them.
  [[nodiscard]] core::TransferMode mode() const {
    return devices_.front()->dispatcher->effective_mode();
  }
  std::future<ServeResult> admit(RequestClass cls, dispatch::Call call);
  void worker_loop(std::size_t device);
  void process(PerDevice& dev, ServeRequest& request);

  FleetConfig config_;
  Router router_;
  std::vector<std::unique_ptr<PerDevice>> devices_;
  dispatch::ShardedQueue<ServeRequest> queue_;
  mutable std::mutex mutex_;         ///< guards the accumulators below
  std::condition_variable idle_cv_;  ///< flush() wake-up
  std::uint64_t submitted_ = 0;
  std::uint64_t finished_ = 0;  ///< completed + shed
  double oracle_s_ = 0.0;
  double routed_est_s_ = 0.0;
};

}  // namespace blob::serve
