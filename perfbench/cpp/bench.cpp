#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "blas/cblas.hpp"
#include "blas/library.hpp"
#include "core/flops.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "sysprofile/profile.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using blob::blas::Transpose;
using blob::core::KernelOp;
using blob::core::OpDesc;
using blob::model::Precision;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      {"setup_s", "s", false},
      {"ops_per_s", "1/s", false},
      {"lat_p50_ms", "ms", false},
      {"solve_s", "s", false},
      {"vs_oracle", "x", false},
      {"vs_best_const", "x", false},
      {"blas.gemm.gflops", "GFLOP/s", true},
      {"blas.gemv.gbps", "GB/s", true},
      {"blas.gemv.flop_per_byte", "flop/B", true},
      {"blas.small_call_us", "us", true},
      {"parallel.region_us", "us", true},
      {"perfmodel.cost_ns", "ns", true},
      {"simgpu.functional_s", "s", true},
      {"simgpu.wall_per_modelled", "x", true},
      {"simgpu.h2d_mb", "MB", true},
      {"dispatch.call_p99_ms", "ms", true},
      {"dispatch.seam_ns", "ns", true},
      {"dispatch.plan_ns", "ns", true},
      {"dispatch.gpu_share", "frac", true},
      {"dispatch.cold_starts", "count", true},
      {"dispatch.explores", "count", true},
      {"dispatch.route_switches", "count", true},
      {"dispatch.dawn.vs_oracle", "x", true},
      {"dispatch.lumi.vs_oracle", "x", true},
      {"dispatch.isambard-ai.vs_oracle", "x", true},
      {"dispatch.residency_hit_ratio", "frac", true},
      {"dispatch.h2d_skipped_mb", "MB", true},
      {"dispatch.batched", "count", true},
      {"lapack.ref_s", "s", true},
      {"lapack.seam_ops", "count", true},
      {"lapack.getrf.dawn.vs_best_const", "x", true},
      {"lapack.getrf.lumi.vs_best_const", "x", true},
      {"lapack.getrf.isambard-ai.vs_best_const", "x", true},
      {"lapack.potrf.dawn.vs_best_const", "x", true},
      {"lapack.potrf.lumi.vs_best_const", "x", true},
      {"lapack.potrf.isambard-ai.vs_best_const", "x", true},
      {"lapack.geqrf.dawn.vs_best_const", "x", true},
      {"lapack.geqrf.lumi.vs_best_const", "x", true},
      {"lapack.geqrf.isambard-ai.vs_best_const", "x", true},
      {"serve.lat_p99_ms", "ms", true},
      {"serve.submit_us", "us", true},
      {"serve.router_ns", "ns", true},
      {"serve.device_skew", "frac", true},
      {"serve.modelled_vs_oracle", "x", true},
      {"obs.trace_overhead_frac", "frac", true},
  };
  return table;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
  reasons_.erase(name);
}

void Report::unavailable(const std::string& name, const std::string& reason) {
  values_.erase(name);
  reasons_[name] = reason;
}

int Report::emit(bool trace) const {
  std::string metrics;
  bool complete = true;
  for (const MetricDef& def : metric_table()) {
    if (def.per_layer != trace) continue;
    double value = -1.0;
    const auto it = values_.find(def.name);
    if (it != values_.end() && std::isfinite(it->second)) {
      value = it->second;
    } else if (const auto why = reasons_.find(def.name);
               why != reasons_.end()) {
      std::printf("unavailable %s: %s\n", def.name, why->second.c_str());
    } else {
      std::cerr << "error: metric " << def.name << " was not measured\n";
      complete = false;
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  }
  const bool correct = failed_ == 0 && attempted_ > 0 && complete;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete ? 0 : 1;
}

void require_thread_budget(std::size_t threads, const char* what) {
  const std::size_t nproc = blob::parallel::ThreadPool::hardware_threads();
  if (threads > nproc) {
    throw std::runtime_error(std::string(what) + " needs " +
                             std::to_string(threads) +
                             " generator, worker and pool threads but the "
                             "host has " +
                             std::to_string(nproc) + " processors");
  }
}

void print_fingerprint(const Options& options, std::size_t threads) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  isa += __builtin_cpu_supports("avx2") ? "avx2" : "no-avx2";
  isa += __builtin_cpu_supports("fma") ? "+fma" : "+no-fma";
#else
  isa = "non-x86";
#endif
#if defined(__AVX2__) && defined(__FMA__)
  isa += " (built avx2+fma)";
#else
  isa += " (built without avx2+fma)";
#endif
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"threads\": %zu, \"isa\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      blob::parallel::ThreadPool::hardware_threads(), threads, isa.c_str(),
      PERFBENCH_BUILD_TYPE, __VERSION__, commit != nullptr ? commit : "unknown");
}

void fill(std::vector<float>& v, std::uint64_t seed) {
  blob::util::Xoshiro256 rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.next_double() - 0.5);
}

void fill(std::vector<double>& v, std::uint64_t seed) {
  blob::util::Xoshiro256 rng(seed);
  for (auto& x : v) x = rng.next_double() - 0.5;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  blob::util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

void Windows::add(double wall_s, double ops, std::vector<double>& latencies,
                  double unit) {
  rate.push_back(ops / wall_s);
  p50_s.push_back(median(std::move(latencies)));
  latencies.clear();
  unit_s.push_back(unit);
}

void Windows::report(Report& out) const {
  out.set("ops_per_s", quantile(rate, 1.0 - kGoodSide));
  out.set("lat_p50_ms", quantile(p50_s, kGoodSide) * 1e3);
  out.set("solve_s", quantile(unit_s, kGoodSide));
}

void Replays::add(std::size_t part, double seconds) {
  if (part >= samples_.size()) samples_.resize(part + 1);
  samples_[part].push_back(seconds);
}

std::vector<double> Replays::floors() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) {
    out.push_back(*std::min_element(s.begin(), s.end()));
  }
  return out;
}

void report_replays(Report& report, const Replays& units, const Replays& ops) {
  double unit_s = 0.0;
  for (const double f : units.floors()) unit_s += f;
  report.set("solve_s", unit_s);
  report.set("ops_per_s", static_cast<double>(ops.parts()) / unit_s);
  report.set("lat_p50_ms", median(ops.floors()) * 1e3);
}

void Modelled::add_call(const blob::dispatch::Dispatcher::Costs& costs) {
  oracle_s += std::min({costs.cpu_s, costs.gpu_s, costs.emu_s});
  always_cpu_s += costs.cpu_s;
  always_gpu_s += costs.gpu_s;
}

// -- per-layer measurements --------------------------------------------------

namespace {

/// Keeps a computed value alive so the timed calls cannot be elided.
volatile double g_sink = 0.0;

/// Repeat `body` until `budget_s` of wall time has passed (at least once);
/// returns seconds per call of `body`.
template <typename F>
double time_per_call(double budget_s, F&& body) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

/// Median over `rounds` batches of `per_batch` calls, in ns per call.
template <typename F>
double batched_ns(std::size_t rounds, std::size_t per_batch, F&& body) {
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) body(i);
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(per_batch));
  }
  return median(samples);
}

struct Operands {
  std::vector<float> af, bf, cf;
  std::vector<double> ad, bd, cd;
};

Operands operands_for(const OpDesc& d) {
  Operands o;
  const auto a = static_cast<std::size_t>(d.rows_a() * d.cols_a());
  const auto b = static_cast<std::size_t>(
      d.op == KernelOp::Gemm ? d.rows_b() * d.cols_b() : d.x_len());
  const auto c = static_cast<std::size_t>(
      d.op == KernelOp::Gemm ? d.m * d.n : d.y_len());
  if (d.precision == Precision::F32) {
    o.af.resize(a);
    o.bf.resize(b);
    o.cf.resize(c);
    fill(o.af, 11);
    fill(o.bf, 12);
  } else {
    o.ad.resize(a);
    o.bd.resize(b);
    o.cd.resize(c);
    fill(o.ad, 11);
    fill(o.bd, 12);
  }
  return o;
}

void call_library(const blob::blas::CpuBlasLibrary& lib, const OpDesc& d,
                  Operands& o) {
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  const auto k = static_cast<int>(d.k);
  const auto lda = static_cast<int>(d.rows_a());
  if (d.op == KernelOp::Gemm) {
    const auto ldb = static_cast<int>(d.rows_b());
    if (d.precision == Precision::F32) {
      lib.do_gemm(d.trans_a, d.trans_b, m, n, k, 1.0F, o.af.data(), lda,
                  o.bf.data(), ldb, 0.0F, o.cf.data(), m);
    } else {
      lib.do_gemm(d.trans_a, d.trans_b, m, n, k, 1.0, o.ad.data(), lda,
                  o.bd.data(), ldb, 0.0, o.cd.data(), m);
    }
  } else if (d.precision == Precision::F32) {
    lib.do_gemv(d.trans_a, m, n, 1.0F, o.af.data(), m, o.bf.data(), 1, 0.0F,
                o.cf.data(), 1);
  } else {
    lib.do_gemv(d.trans_a, m, n, 1.0, o.ad.data(), m, o.bd.data(), 1, 0.0,
                o.cd.data(), 1);
  }
}

bool native_precision(const OpDesc& d) {
  return d.precision == Precision::F32 || d.precision == Precision::F64;
}

/// Stored bytes a GEMV streams: A plus both vectors.
double gemv_bytes(const OpDesc& d) {
  const double elem = d.precision == Precision::F32 ? 4.0 : 8.0;
  return elem * static_cast<double>(d.m * d.n + d.x_len() + d.y_len());
}

}  // namespace

void measure_blas(Report& report, const std::vector<OpDesc>& shapes,
                  std::size_t threads) {
  const blob::blas::CpuBlasLibrary lib(blob::blas::generic_personality(),
                                       threads);
  double gemm_flops = 0.0, gemm_s = 0.0;
  double gemv_flops = 0.0, gemv_bytes_total = 0.0, gemv_s = 0.0;
  for (const OpDesc& d : shapes) {
    if (!native_precision(d)) continue;
    Operands o = operands_for(d);
    call_library(lib, d, o);  // warm the packing arena and caches
    const double per_call =
        time_per_call(0.05, [&] { call_library(lib, d, o); });
    const double flops = blob::core::problem_flops(d);
    if (d.op == KernelOp::Gemm) {
      gemm_flops += flops;
      gemm_s += per_call;
    } else {
      gemv_flops += flops;
      gemv_bytes_total += gemv_bytes(d);
      gemv_s += per_call;
    }
  }
  if (gemm_s > 0.0) {
    report.set("blas.gemm.gflops", gemm_flops / gemm_s / 1e9);
  } else {
    report.unavailable("blas.gemm.gflops", "no f32/f64 GEMM in the stream");
  }
  if (gemv_s > 0.0) {
    report.set("blas.gemv.gbps", gemv_bytes_total / gemv_s / 1e9);
    report.set("blas.gemv.flop_per_byte", gemv_flops / gemv_bytes_total);
  } else {
    report.unavailable("blas.gemv.gbps", "no f32/f64 GEMV in the stream");
    report.unavailable("blas.gemv.flop_per_byte",
                       "no f32/f64 GEMV in the stream");
  }
}

std::vector<OpDesc> serve_small_shapes() {
  const auto gemm = [](Precision p, int n) {
    return OpDesc::gemm(p, Transpose::No, Transpose::No, n, n, n, n, n, n,
                        true, true);
  };
  const auto gemv = [](Precision p, int n) {
    return OpDesc::gemv(p, Transpose::No, n, n, n, 1, 1, true, true);
  };
  return {gemm(Precision::F32, 32), gemm(Precision::F64, 48),
          gemm(Precision::F32, 64), gemm(Precision::F64, 96),
          gemm(Precision::F32, 96), gemv(Precision::F32, 256),
          gemv(Precision::F64, 384), gemv(Precision::F32, 512)};
}

void measure_small_calls(Report& report) {
  const blob::blas::CpuBlasLibrary lib(blob::blas::generic_personality(), 1);
  const std::vector<OpDesc> shapes = serve_small_shapes();
  std::vector<Operands> ops;
  for (const OpDesc& d : shapes) ops.push_back(operands_for(d));
  const double per_round = time_per_call(0.2, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      call_library(lib, shapes[i], ops[i]);
    }
  });
  report.set("blas.small_call_us",
             per_round * 1e6 / static_cast<double>(shapes.size()));
}

void measure_parallel_region(Report& report, std::size_t threads) {
  blob::parallel::ThreadPool pool(threads);
  const std::size_t parties = std::max<std::size_t>(threads, 2);
  const double ns = batched_ns(31, 200, [&](std::size_t) {
    pool.parallel_for(0, parties, 1,
                      [](std::size_t, std::size_t, std::size_t) {});
  });
  report.set("parallel.region_us", ns / 1e3);
}

void measure_model_and_plan(Report& report,
                            const blob::dispatch::DispatcherConfig& config,
                            const std::vector<OpDesc>& descs) {
  blob::dispatch::DispatcherConfig twin_config = config;
  twin_config.functional = false;
  blob::dispatch::Dispatcher twin(twin_config);
  double sink = 0.0;
  const double cost = batched_ns(31, 100 * descs.size(), [&](std::size_t i) {
    sink += twin.modelled_costs(descs[i % descs.size()]).cpu_s;
  });
  report.set("perfmodel.cost_ns", cost);
  // Seed every bucket first so the timed calls are steady-state plans.
  for (const OpDesc& d : descs) {
    (void)twin.plan(d, blob::dispatch::Dispatcher::gpu_supported(d));
  }
  const double plan = batched_ns(31, 100 * descs.size(), [&](std::size_t i) {
    const OpDesc& d = descs[i % descs.size()];
    sink += twin.plan(d, blob::dispatch::Dispatcher::gpu_supported(d)).cpu_est_s;
  });
  report.set("dispatch.plan_ns", plan);
  g_sink = sink;
}

void measure_seam(Report& report,
                  const blob::dispatch::DispatcherConfig& config) {
  // 32^3 f32 GEMM routes to the CPU on every profile; seam cost is the
  // hooked call minus the identical hook-free call, both on one-thread
  // libraries (main() caps the hook-free cblas library to one thread).
  blob::dispatch::DispatcherConfig seam_config = config;
  seam_config.cpu_threads = 1;
  blob::dispatch::Dispatcher dispatcher(seam_config);
  constexpr int n = 32;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  fill(a, 21);
  fill(b, 22);
  auto call = [&](std::size_t) {
    cblas_sgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, n, n, n, 1.0F,
                a.data(), n, b.data(), n, 0.0F, c.data(), n);
  };
  dispatcher.install();
  for (std::size_t i = 0; i < 200; ++i) call(i);  // converge the bucket
  dispatcher.uninstall();
  std::vector<double> diffs;
  for (int r = 0; r < 21; ++r) {
    const double free_ns = batched_ns(1, 2000, call);
    dispatcher.install();
    const double hooked_ns = batched_ns(1, 2000, call);
    dispatcher.uninstall();
    diffs.push_back(hooked_ns - free_ns);
  }
  report.set("dispatch.seam_ns", median(diffs));
}

void measure_router(Report& report, const std::vector<OpDesc>& descs) {
  blob::dispatch::DispatcherConfig config;
  config.functional = false;
  config.cpu_threads = 1;
  config.profile = blob::profile::dawn();
  blob::dispatch::Dispatcher dawn(config);
  config.profile = blob::profile::lumi();
  config.device_id = 1;
  blob::dispatch::Dispatcher lumi(config);
  const std::vector<blob::serve::DeviceView> views = {{&dawn, 1e-4, 3},
                                                      {&lumi, 2e-4, 2}};
  const blob::serve::Router router;
  int sink = 0;
  const double ns = batched_ns(31, 100 * descs.size(), [&](std::size_t i) {
    sink += router.choose(descs[i % descs.size()], views).device;
  });
  report.set("serve.router_ns", ns);
  g_sink = sink;
}

void report_dispatch_counts(
    Report& report, const std::vector<blob::dispatch::DispatchStats>& stats) {
  blob::dispatch::DispatchStats sum;
  for (const auto& s : stats) {
    sum.calls += s.calls;
    sum.gpu_routed += s.gpu_routed;
    sum.emulated_routed += s.emulated_routed;
    sum.batched_routed += s.batched_routed;
    sum.cold_starts += s.cold_starts;
    sum.explores += s.explores;
    sum.route_switches += s.route_switches;
    sum.residency_hits += s.residency_hits;
    sum.residency_misses += s.residency_misses;
    sum.h2d_bytes_skipped += s.h2d_bytes_skipped;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  report.set("dispatch.gpu_share",
             sum.calls == 0 ? 0.0
                            : d(sum.gpu_routed + sum.emulated_routed) /
                                  d(sum.calls));
  report.set("dispatch.cold_starts", d(sum.cold_starts));
  report.set("dispatch.explores", d(sum.explores));
  report.set("dispatch.route_switches", d(sum.route_switches));
  const std::uint64_t lookups = sum.residency_hits + sum.residency_misses;
  if (lookups == 0) {
    report.unavailable("dispatch.residency_hit_ratio",
                       "residency tracking is off on this workload");
  } else {
    report.set("dispatch.residency_hit_ratio",
               d(sum.residency_hits) / d(lookups));
  }
  report.set("dispatch.h2d_skipped_mb", sum.h2d_bytes_skipped / 1e6);
  report.set("dispatch.batched", d(sum.batched_routed));
}

}  // namespace perfbench
