#pragma once
// Shared plumbing of the perfbench program: options, the metric table and
// result line, wall-clock statistics, the thread budget, the host
// fingerprint, and the per-layer microbenchmarks every workload reuses.
//
// Two kinds of number leave this program. Modelled ratios come from the
// dispatchers' virtual clocks over a fixed op stream chosen by the seed,
// so they repeat bit for bit on any host. Wall-clock numbers judge the
// program's own speed; each one is a median or a total over a phase of
// many operations, never a single short interval.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/op_desc.hpp"
#include "dispatch/dispatcher.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Metric sink of one run. Names and units come from one table
/// (metric_table()); emit() prints the full set for the run's mode.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Per-layer metric with no meaning on this workload: printed with the
  /// sentinel value -1 and the reason on its own line.
  void unavailable(const std::string& name, const std::string& reason);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  /// Print notes and the final JSON line; returns the exit code.
  int emit(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};
[[nodiscard]] const std::vector<MetricDef>& metric_table();

/// Refuse a configuration whose generator, worker and pool threads
/// exceed the host's processors. Throws std::runtime_error.
void require_thread_budget(std::size_t threads, const char* what);

/// One line describing the host and build, printed before the result.
void print_fingerprint(const Options& options, std::size_t threads);

/// Deterministic operand values in [-0.5, 0.5).
void fill(std::vector<float>& v, std::uint64_t seed);
void fill(std::vector<double>& v, std::uint64_t seed);

/// Shuffle [0, n) with a generator seeded by `seed`.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n,
                                                   std::uint64_t seed);

/// Other tenants of a shared host slow it by 10-60% in phases from a
/// fraction of a second to a minute, hardest on cache-bound kernels. The
/// wall metrics therefore summarise repeated samples from the good side:
/// the samples such a phase hits drop out, while a change to the program
/// moves every sample alike.
///
/// Quantile of the good side over many short windows (the mirror one for
/// rates).
inline constexpr double kGoodSide = 0.1;

/// Wall figures of a timed phase cut into many short windows (serve-small:
/// one burst cycle each). Each metric is taken per window and summarised
/// by its kGoodSide quantile over the windows.
struct Windows {
  std::vector<double> rate;   ///< ops completed per wall second
  std::vector<double> p50_s;  ///< median op latency
  std::vector<double> unit_s; ///< wall time of the workload's unit of work

  /// Record one window; consumes `latencies` (the window's op latencies).
  void add(double wall_s, double ops, std::vector<double>& latencies,
           double unit_s);
  /// Sets ops_per_s, lat_p50_ms and solve_s.
  void report(Report& report) const;
};

/// Wall samples of the parts of a fixed sequence that the timed phase
/// replays a few dozen times (offload-mix: its calls; factorize: its
/// solves and its seam calls). Each part is summarised by its floor, the
/// fastest of its samples: with this few samples per part a slow phase
/// can cover most of them, but rarely all.
class Replays {
 public:
  void add(std::size_t part, double seconds);
  /// The fastest sample of every part, in part order.
  [[nodiscard]] std::vector<double> floors() const;
  [[nodiscard]] std::size_t parts() const { return samples_.size(); }

 private:
  std::vector<std::vector<double>> samples_;
};

/// Sets solve_s to the sum of the floors of `units`, ops_per_s to the
/// number of parts of `ops` divided by it, and lat_p50_ms to the median
/// floor of `ops`.
void report_replays(Report& report, const Replays& units, const Replays& ops);

/// Builds a workload's state repeatedly (at least 11 times and for at
/// least a second) and sets setup_s to the median build time; returns the
/// state of the last build.
template <typename Make>
auto timed_setups(Report& report, Make&& make) {
  std::vector<double> setups;
  decltype(make()) state;
  const auto start = Clock::now();
  while (setups.size() < 11 || seconds_since(start) < 1.0) {
    state.reset();
    const auto built = Clock::now();
    state = make();
    setups.push_back(seconds_since(built));
  }
  report.set("setup_s", median(setups));
  return state;
}

/// Modelled-time ledger of one dispatcher over a fixed op stream.
struct Modelled {
  double routed_s = 0.0;
  double oracle_s = 0.0;
  double always_cpu_s = 0.0;
  double always_gpu_s = 0.0;

  [[nodiscard]] double best_const_s() const {
    return always_cpu_s < always_gpu_s ? always_cpu_s : always_gpu_s;
  }
  void add_call(const blob::dispatch::Dispatcher::Costs& costs);
};

// -- per-layer measurements --------------------------------------------------
// Each times calls into one module's public functions from here; none
// touches the state of a dispatcher that a workload measures.

/// Sets blas.gemm.gflops, blas.gemv.gbps and blas.gemv.flop_per_byte
/// from hook-free CpuBlasLibrary calls at `shapes` (f32/f64 only).
void measure_blas(Report& report, const std::vector<blob::core::OpDesc>& shapes,
                  std::size_t threads);
/// serve-small's request shapes: small GEMMs and GEMVs, f32/f64.
[[nodiscard]] std::vector<blob::core::OpDesc> serve_small_shapes();
/// blas.small_call_us: hook-free calls at serve-small's shapes.
void measure_small_calls(Report& report);
/// parallel.region_us: empty fork/join at the workload's pool size.
void measure_parallel_region(Report& report, std::size_t threads);
/// perfmodel.cost_ns and dispatch.plan_ns, on a twin dispatcher built
/// from `config` and fed `descs`.
void measure_model_and_plan(Report& report,
                            const blob::dispatch::DispatcherConfig& config,
                            const std::vector<blob::core::OpDesc>& descs);
/// dispatch.seam_ns: a hooked CPU-routed call minus the same call
/// hook-free.
void measure_seam(Report& report,
                  const blob::dispatch::DispatcherConfig& config);
/// serve.router_ns: Router::choose over a dawn and a lumi device view.
void measure_router(Report& report,
                    const std::vector<blob::core::OpDesc>& descs);
/// dispatch.* counts summed over the dispatchers of a fixed stream.
void report_dispatch_counts(
    Report& report, const std::vector<blob::dispatch::DispatchStats>& stats);

// -- workloads ---------------------------------------------------------------

int run_offload_mix(const Options& options);
int run_serve_small(const Options& options);
int run_factorize(const Options& options);

}  // namespace perfbench
