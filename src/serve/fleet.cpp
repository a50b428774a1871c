#include "serve/fleet.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "serve/metrics.hpp"

namespace blob::serve {

namespace {

/// Relaxed add for an atomic<double> (statistics, not synchronisation).
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

DeviceFleet::DeviceFleet(FleetConfig config)
    : config_(std::move(config)),
      queue_(std::max<std::size_t>(config_.devices.size(), 1),
             config_.queue_capacity) {
  if (config_.devices.empty()) {
    throw std::invalid_argument("DeviceFleet: at least one device required");
  }
  devices_.reserve(config_.devices.size());
  for (std::size_t i = 0; i < config_.devices.size(); ++i) {
    dispatch::DispatcherConfig cfg = config_.base;
    cfg.profile = config_.devices[i];
    cfg.device_id = static_cast<int>(i);
    cfg.nspace = config_.tenant;
    cfg.calibration_path = config_.calibration_prefix.empty()
                               ? std::string()
                               : calibration_path(config_, i);
    auto dev = std::make_unique<PerDevice>();
    dev->dispatcher = std::make_unique<dispatch::Dispatcher>(std::move(cfg));
    devices_.push_back(std::move(dev));
  }
  // Workers start only after every dispatcher exists: a worker touches
  // nothing but its own shard and its own device, but stats() walks all.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->worker = std::thread([this, i] { worker_loop(i); });
  }
}

DeviceFleet::~DeviceFleet() { stop(); }

std::string DeviceFleet::calibration_path(const FleetConfig& config,
                                          std::size_t device) {
  std::string path = config.calibration_prefix;
  if (!config.tenant.empty()) path += "." + config.tenant;
  path += ".dev" + std::to_string(device) + ".json";
  return path;
}

std::future<ServeResult> DeviceFleet::admit(RequestClass cls,
                                           dispatch::Call call) {
  ServeRequest request;
  request.call = call;
  request.cls = cls;
  std::future<ServeResult> future = request.done.get_future();
  request.submit_ns = obs::now_ns();
  const double slo_ms = config_.slo.deadline_ms(request.cls);
  request.deadline_ns =
      slo_ms > 0.0
          ? request.submit_ns + static_cast<std::int64_t>(slo_ms * 1.0e6)
          : 0;
  {
    // Routing runs under the fleet lock so concurrent producers see a
    // consistent outstanding-work picture (and single-producer runs are
    // fully deterministic). modelled_costs() only reads device state.
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.closed()) {
      throw std::runtime_error("DeviceFleet: submit after stop()");
    }
    std::vector<DeviceView> views;
    views.reserve(devices_.size());
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      DeviceView view;
      view.dispatcher = devices_[i]->dispatcher.get();
      view.outstanding_s = std::max(
          0.0, devices_[i]->outstanding_s.load(std::memory_order_relaxed));
      view.queue_depth = queue_.depth(i);
      views.push_back(view);
    }
    const RouteChoice choice = router_.choose(request.call.desc, views);
    request.device = choice.device;
    request.est_s = choice.est_s;
    request.id = submitted_;
    ++submitted_;
    oracle_s_ += choice.oracle_s;
    routed_est_s_ += choice.est_s;
    atomic_add(devices_[static_cast<std::size_t>(choice.device)]->outstanding_s,
               choice.est_s);
  }
  static obs::Counter& submitted = obs::counter("serve.submitted");
  submitted.add(1);
  // Backpressure happens HERE, outside the fleet lock: a producer
  // blocked on a full shard must not stall the workers' completion
  // bookkeeping (or other producers routing to idle devices).
  const auto shard = static_cast<std::size_t>(request.device);
  const double est = request.est_s;
  if (!queue_.push(shard, request)) {
    std::lock_guard<std::mutex> lock(mutex_);
    --submitted_;
    atomic_add(devices_[shard]->outstanding_s, -est);
    throw std::runtime_error("DeviceFleet: submit after stop()");
  }
  return future;
}

void DeviceFleet::worker_loop(std::size_t device) {
  PerDevice& dev = *devices_[device];
  obs::Histogram& depth_hist = queue_depth_histogram(static_cast<int>(device));
  std::vector<ServeRequest> batch;
  for (;;) {
    batch.clear();
    batch.reserve(config_.max_drain);
    if (queue_.pop_batch(device, config_.max_drain, batch) == 0) {
      return;  // closed and the shard is drained
    }
    // Backlog at cycle start: what was taken plus what is still waiting.
    depth_hist.record(batch.size() + queue_.depth(device));
    for (ServeRequest& request : batch) {
      process(dev, request);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      finished_ += batch.size();
    }
    idle_cv_.notify_all();
  }
}

void DeviceFleet::process(PerDevice& dev, ServeRequest& request) {
  ServeResult result;
  result.device = request.device;
  result.id = request.id;
  result.modelled_s = request.est_s;

  const std::int64_t now = obs::now_ns();
  if (request.deadline_ns > 0 && now > request.deadline_ns) {
    // Past-deadline at dequeue: shed WITHOUT executing. The output
    // buffer is untouched; the client sees Outcome::Shed and retries or
    // degrades. Nothing with a live deadline is ever dropped.
    result.outcome = Outcome::Shed;
    result.latency_ns = now - request.submit_ns;
    atomic_add(dev.outstanding_s, -request.est_s);
    dev.shed.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& shed_total = obs::counter("serve.shed");
    shed_total.add(1);
    shed_counter(request.cls).add(1);
    request.done.set_value(result);
    return;
  }

  dev.dispatcher->run(request.call);

  result.outcome = Outcome::Completed;
  result.latency_ns = obs::now_ns() - request.submit_ns;
  atomic_add(dev.outstanding_s, -request.est_s);
  dev.completed.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& completed = obs::counter("serve.completed");
  completed.add(1);
  latency_histogram(request.cls)
      .record(static_cast<std::uint64_t>(std::max<std::int64_t>(
          result.latency_ns, 0)));
  request.done.set_value(result);
}

void DeviceFleet::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return finished_ >= submitted_; });
}

void DeviceFleet::stop() {
  queue_.close();
  for (auto& dev : devices_) {
    if (dev->worker.joinable()) dev->worker.join();
  }
}

FleetStats DeviceFleet::stats() const {
  FleetStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.submitted = submitted_;
    stats.oracle_s = oracle_s_;
    stats.routed_est_s = routed_est_s_;
  }
  stats.devices.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const PerDevice& dev = *devices_[i];
    DeviceStats ds;
    ds.profile = dev.dispatcher->config().profile.name;
    ds.dispatch = dev.dispatcher->stats();
    ds.completed = dev.completed.load(std::memory_order_relaxed);
    ds.shed = dev.shed.load(std::memory_order_relaxed);
    ds.outstanding_s =
        std::max(0.0, dev.outstanding_s.load(std::memory_order_relaxed));
    ds.queue_depth = queue_.depth(i);
    ds.busy_s = ds.dispatch.cpu_seconds + ds.dispatch.gpu_seconds;
    stats.completed += ds.completed;
    stats.shed += ds.shed;
    stats.busy_s += ds.busy_s;
    stats.makespan_s = std::max(stats.makespan_s, ds.busy_s);
    stats.devices.push_back(std::move(ds));
  }
  return stats;
}

bool DeviceFleet::save_calibration() const {
  if (config_.calibration_prefix.empty()) return true;
  bool ok = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    ok = devices_[i]->dispatcher->save_calibration(
             calibration_path(config_, i)) &&
         ok;
  }
  return ok;
}

}  // namespace blob::serve
