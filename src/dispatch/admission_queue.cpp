#include "dispatch/admission_queue.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace blob::dispatch {

namespace {

/// Conservative overlap test: do the byte spans (first chunk start to
/// last chunk end) of two regions intersect?
bool spans_overlap(const Region& x, const Region& y) {
  if (!x.valid() || !y.valid()) return false;
  const auto lo = [](const Region& r) {
    return reinterpret_cast<std::uintptr_t>(r.ptr);
  };
  const auto hi = [&](const Region& r) {
    return lo(r) + (r.count - 1) * r.stride + r.bytes;
  };
  return lo(x) < hi(y) && lo(y) < hi(x);
}

/// Must `later` wait for `earlier`? True when it reads or writes what
/// `earlier` writes (RAW, WAW), or writes what `earlier` reads (WAR).
bool hazard(const OperandRegions& earlier, const OperandRegions& later) {
  return spans_overlap(later.a, earlier.c) ||
         spans_overlap(later.b, earlier.c) ||
         spans_overlap(later.c, earlier.c) ||
         spans_overlap(later.c, earlier.a) || spans_overlap(later.c, earlier.b);
}

}  // namespace

AdmissionQueue::AdmissionQueue(Dispatcher& dispatcher,
                               AdmissionQueueConfig config)
    : dispatcher_(dispatcher), config_(config) {
  config_.max_drain = std::max<std::size_t>(config_.max_drain, 1);
  config_.coalesce_min = std::max(config_.coalesce_min, 2);
  worker_ = std::thread([this] { worker_loop(); });
}

AdmissionQueue::~AdmissionQueue() { stop(); }

std::future<void> AdmissionQueue::push(Call call) {
  Request request;
  request.call = call;
  if (obs::enabled()) request.submit_ns = obs::now_ns();
  std::future<void> future = request.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.closed()) {
      throw std::runtime_error("AdmissionQueue: submit after stop()");
    }
    ++submitted_;
  }
  if (!queue_.push(0, request)) {
    std::lock_guard<std::mutex> lock(mutex_);
    --submitted_;
    throw std::runtime_error("AdmissionQueue: submit after stop()");
  }
  return future;
}

void AdmissionQueue::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return completed_ >= submitted_; });
}

void AdmissionQueue::stop() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

std::uint64_t AdmissionQueue::submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

std::uint64_t AdmissionQueue::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

void AdmissionQueue::worker_loop() {
  for (;;) {
    std::vector<Request> batch;
    batch.reserve(config_.max_drain);
    if (queue_.pop_batch(0, config_.max_drain, batch) == 0) {
      return;  // closed and nothing left to drain
    }
    if (batch.size() < config_.max_drain) {
      // Give a producer caught mid-burst one scheduling slot to finish
      // before this cycle is fixed. Without it, on a saturated machine
      // the first push of a burst wakes this thread, which preempts the
      // producer and drains a one-request cycle — repeated per push, so
      // bursts that should coalesce degenerate into per-call routing.
      std::this_thread::yield();
      queue_.try_pop_batch(0, config_.max_drain - batch.size(), batch);
    }
    {
      obs::Span cycle("dispatch.queue_cycle", obs::Category::Dispatch);
      if (cycle.active()) {
        static obs::Counter& cycles = obs::counter("dispatch.queue_cycles");
        cycles.add(1);
        static obs::Histogram& wait_hist =
            obs::histogram("dispatch.admission_wait_ns");
        const std::int64_t now = obs::now_ns();
        for (const Request& r : batch) {
          if (r.submit_ns > 0 && now > r.submit_ns) {
            wait_hist.record(static_cast<std::uint64_t>(now - r.submit_ns));
          }
        }
      }
      drain_cycle(batch);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      completed_ += batch.size();
    }
    idle_cv_.notify_all();
  }
}

bool AdmissionQueue::coalescible(const core::OpDesc& desc) const {
  const std::int64_t dim = config_.coalesce_max_dim;
  if (desc.m <= 0 || desc.n <= 0 || desc.m > dim || desc.n > dim) {
    return false;
  }
  // Small GEMVs coalesce into one blas::gemv_batched submission; strided
  // vectors group too (the batched primitive stages them).
  return desc.op == core::KernelOp::Gemv || (desc.k > 0 && desc.k <= dim);
}

void AdmissionQueue::drain_cycle(std::vector<Request>& batch) {
  // Cut the cycle wherever a request depends on (or overwrites) a buffer
  // of an earlier request in the current segment.
  std::vector<OperandRegions> segment;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const OperandRegions regions = operand_regions(batch[i].call);
    if (std::any_of(segment.begin(), segment.end(),
                    [&](const OperandRegions& earlier) {
                      return hazard(earlier, regions);
                    })) {
      run_segment(batch, begin, i);
      begin = i;
      segment.clear();
    }
    segment.push_back(regions);
  }
  run_segment(batch, begin, batch.size());
}

void AdmissionQueue::run_segment(std::vector<Request>& batch,
                                 std::size_t begin, std::size_t end) {
  // -- identify coalesce groups (same shape + layout, scalars, lds) --------
  // The error budget is part of the key: a coalesced group runs under one
  // shared OpDesc, so mixing contracts would silently promote or demote
  // someone's accuracy.
  const auto group_key = [](const Call& call) {
    const core::OpDesc& d = call.desc;
    return std::make_tuple(d.op, d.precision, d.trans_a, d.trans_b, d.m, d.n,
                           d.k, d.lda, d.ldb, d.ldc, d.incx, d.incy,
                           call.alpha, call.beta, d.budget.kind,
                           d.budget.ulps);
  };
  std::map<decltype(group_key(Call{})), std::vector<std::size_t>> groups;
  for (std::size_t i = begin; i < end; ++i) {
    if (coalescible(batch[i].call.desc)) {
      groups[group_key(batch[i].call)].push_back(i);
    }
  }
  std::vector<const std::vector<std::size_t>*> to_batch;
  std::vector<bool> coalesced(batch.size(), false);
  for (const auto& [key, members] : groups) {
    if (members.size() < static_cast<std::size_t>(config_.coalesce_min)) {
      continue;
    }
    for (const std::size_t i : members) coalesced[i] = true;
    to_batch.push_back(&members);
  }

  // -- plan the rest and submit GPU-routed work first (overlap setup) ------
  struct Planned {
    std::size_t idx;
    Decision decision;
    Dispatcher::GpuJob job;
  };
  std::vector<Planned> cpu_work;
  std::vector<Planned> gpu_work;
  for (std::size_t i = begin; i < end; ++i) {
    if (coalesced[i]) continue;
    try {
      const Call& call = batch[i].call;
      const Decision decision = dispatcher_.plan(call);
      if (decision.route == Route::Gpu ||
          decision.route == Route::GpuEmulated) {
        gpu_work.push_back(
            {i, decision, dispatcher_.enqueue_gpu(decision, call)});
      } else {
        cpu_work.push_back({i, decision, {}});
      }
    } catch (...) {
      batch[i].done.set_exception(std::current_exception());
    }
  }

  // -- CPU work runs while the GPU jobs are in flight ----------------------
  for (const auto* members : to_batch) {
    std::vector<const Call*> calls;
    for (const std::size_t i : *members) calls.push_back(&batch[i].call);
    try {
      dispatcher_.run_coalesced(calls);
      for (const std::size_t i : *members) batch[i].done.set_value();
    } catch (...) {
      for (const std::size_t i : *members) {
        batch[i].done.set_exception(std::current_exception());
      }
    }
  }
  const auto settle = [&batch](std::size_t i, const auto& work) {
    try {
      work();
      batch[i].done.set_value();
    } catch (...) {
      batch[i].done.set_exception(std::current_exception());
    }
  };
  for (const Planned& w : cpu_work) {
    settle(w.idx, [&] { dispatcher_.run_cpu(w.decision, batch[w.idx].call); });
  }

  // -- join the GPU jobs; outputs publish only after the unpack ------------
  const bool overlapped = !cpu_work.empty() || !to_batch.empty();
  obs::Span join_span = !gpu_work.empty() && obs::enabled()
                            ? obs::Span("dispatch.overlap_join",
                                        obs::Category::Dispatch)
                            : obs::Span();
  for (Planned& w : gpu_work) {
    settle(w.idx, [&] { dispatcher_.finish_gpu_job(w.job, overlapped); });
  }
}

}  // namespace blob::dispatch
