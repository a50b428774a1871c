// factorize: getrf, potrf and geqrf (dim 512, block 64) on each of dawn,
// lumi and isambard-ai with residency tracking on: nine solves per round.
// Each solve builds a fresh Dispatcher, as one solver run of an
// application does, and routes its trailing updates through the seam.
//
// Constant-policy baselines are honest under residency: always-GPU runs
// on a twin Dispatcher with the same policy and every seam call pinned to
// the GPU route, so resident operands are priced as resident; always-CPU
// sums the CPU model over the same op stream.

#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "blas/cblas.hpp"
#include "blas/gemm.hpp"
#include "core/validate.hpp"
#include "dispatch/residency.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "lapack/potrf.hpp"
#include "obs/trace.hpp"
#include "sysprofile/profile.hpp"

namespace perfbench {
namespace {

using blob::blas::Transpose;
using blob::core::OpDesc;
using blob::dispatch::Decision;
using blob::dispatch::Dispatcher;
using blob::dispatch::DispatchStats;
using blob::dispatch::matrix_region;
using blob::dispatch::OperandRegions;
using blob::dispatch::Route;
using blob::dispatch::vector_region;

constexpr int kDim = 512;
constexpr int kBlock = 64;
constexpr std::size_t kPoolThreads = 2;
const char* const kSolvers[] = {"getrf", "potrf", "geqrf"};
const char* const kProfiles[] = {"dawn", "lumi", "isambard-ai"};
constexpr std::size_t kNumSolvers = std::size(kSolvers);
constexpr std::size_t kNumProfiles = std::size(kProfiles);
constexpr std::size_t kSolves = kNumSolvers * kNumProfiles;

blob::dispatch::DispatcherConfig config_for(std::size_t profile) {
  blob::dispatch::DispatcherConfig config;
  config.profile = blob::profile::by_name(kProfiles[profile]);
  config.cpu_threads = kPoolThreads;
  config.residency = blob::dispatch::ResidencyPolicy::Track;
  config.trace_capacity = 8192;
  return config;
}

/// One factorization's output: the factor plus pivots or tau.
struct Factor {
  std::vector<double> a;
  std::vector<int> ipiv;
  std::vector<double> tau;
};

void factor(std::size_t solver, Factor& f) {
  if (solver == 0) {
    blob::lapack::getrf(kDim, f.a.data(), kDim, f.ipiv, nullptr, 1, kBlock);
  } else if (solver == 1) {
    blob::lapack::potrf(blob::blas::UpLo::Lower, kDim, f.a.data(), kDim,
                        nullptr, 1, kBlock);
  } else {
    blob::lapack::geqrf(kDim, kDim, f.a.data(), kDim, f.tau, nullptr, 1,
                        kBlock);
  }
}

bool same_factor(const Factor& ref, const Factor& got) {
  return got.ipiv == ref.ipiv && got.tau == ref.tau &&
         blob::core::compare_buffers(ref.a.data(), got.a.data(), ref.a.size(),
                                     blob::core::CompareSpec::bitwise())
             .passed;
}

/// Forwards every seam call to a Dispatcher and records its wall latency.
class TimedHook final : public blob::blas::CblasDispatchHook {
 public:
  TimedHook(Dispatcher& d, std::vector<double>* latencies)
      : d_(d), latencies_(latencies) {}

  bool gemm(const OpDesc& desc, float alpha, const float* a, const float* b,
            float beta, float* c) override {
    return timed([&] { return d_.gemm(desc, alpha, a, b, beta, c); });
  }
  bool gemm(const OpDesc& desc, double alpha, const double* a,
            const double* b, double beta, double* c) override {
    return timed([&] { return d_.gemm(desc, alpha, a, b, beta, c); });
  }
  bool gemv(const OpDesc& desc, float alpha, const float* a, const float* x,
            float beta, float* y) override {
    return timed([&] { return d_.gemv(desc, alpha, a, x, beta, y); });
  }
  bool gemv(const OpDesc& desc, double alpha, const double* a,
            const double* x, double beta, double* y) override {
    return timed([&] { return d_.gemv(desc, alpha, a, x, beta, y); });
  }
  void host_write(const void* ptr, std::size_t chunk, std::size_t stride,
                  std::size_t count) override {
    d_.host_write(ptr, chunk, stride, count);
  }
  void host_swap(const void* pa, const void* pb, std::size_t chunk,
                 std::size_t stride, std::size_t count) override {
    d_.host_swap(pa, pb, chunk, stride, count);
  }

 private:
  template <typename F>
  bool timed(F&& call) {
    if (latencies_ == nullptr) return call();
    const auto start = Clock::now();
    const bool handled = call();
    latencies_->push_back(seconds_since(start));
    return handled;
  }

  Dispatcher& d_;
  std::vector<double>* latencies_;
};

/// The always-GPU constant policy under residency: every seam call the
/// device can take is planned on the twin (so the tracker classifies it)
/// and then pinned to the GPU route. Also prices always-CPU and the
/// per-call two-arm oracle over the twin's residency-aware GPU costs.
class AlwaysGpuHook final : public blob::blas::CblasDispatchHook {
 public:
  explicit AlwaysGpuHook(Dispatcher& twin) : twin_(twin) {}

  bool gemm(const OpDesc& desc, float alpha, const float* a, const float* b,
            float beta, float* c) override {
    return run_gemm(desc, alpha, a, b, beta, c);
  }
  bool gemm(const OpDesc& desc, double alpha, const double* a,
            const double* b, double beta, double* c) override {
    return run_gemm(desc, alpha, a, b, beta, c);
  }
  bool gemv(const OpDesc& desc, float alpha, const float* a, const float* x,
            float beta, float* y) override {
    return run_gemv(desc, alpha, a, x, beta, y);
  }
  bool gemv(const OpDesc& desc, double alpha, const double* a,
            const double* x, double beta, double* y) override {
    return run_gemv(desc, alpha, a, x, beta, y);
  }
  void host_write(const void* ptr, std::size_t chunk, std::size_t stride,
                  std::size_t count) override {
    twin_.host_write(ptr, chunk, stride, count);
  }
  void host_swap(const void* pa, const void* pb, std::size_t chunk,
                 std::size_t stride, std::size_t count) override {
    twin_.host_swap(pa, pb, chunk, stride, count);
  }

  double always_cpu_s = 0.0;
  double oracle_s = 0.0;

 private:
  template <typename T>
  bool run_gemm(OpDesc desc, T alpha, const T* a, const T* b, T beta, T* c) {
    if (desc.m <= 0 || desc.n <= 0) return true;
    desc.mode = twin_.effective_mode();
    const OperandRegions regions{
        matrix_region(a, sizeof(T), desc.lda, desc.rows_a(), desc.cols_a()),
        matrix_region(b, sizeof(T), desc.ldb, desc.rows_b(), desc.cols_b()),
        matrix_region(c, sizeof(T), desc.ldc, desc.m, desc.n)};
    const bool gpu_ok = Dispatcher::gpu_supported(desc);
    const double before = spent();
    Decision decision = twin_.plan(desc, gpu_ok, regions);
    if (gpu_ok) {
      decision.route = Route::Gpu;
      Dispatcher::GpuJob job =
          twin_.enqueue_gemm_gpu<T, T>(decision, desc, alpha, a, b, beta, c);
      twin_.finish_gpu_job(job);
    } else {
      decision.route = Route::Cpu;
      twin_.run_gemm_cpu<T, T>(decision, desc, alpha, a, b, beta, c);
    }
    account(desc, spent() - before);
    return true;
  }

  template <typename T>
  bool run_gemv(OpDesc desc, T alpha, const T* a, const T* x, T beta, T* y) {
    if (desc.m <= 0 || desc.n <= 0) return true;
    desc.mode = twin_.effective_mode();
    const OperandRegions regions{
        matrix_region(a, sizeof(T), desc.lda, desc.m, desc.n),
        vector_region(x, sizeof(T), desc.x_len(), desc.incx),
        vector_region(y, sizeof(T), desc.y_len(), desc.incy)};
    const bool gpu_ok = Dispatcher::gpu_supported(desc);
    const double before = spent();
    Decision decision = twin_.plan(desc, gpu_ok, regions);
    if (gpu_ok) {
      decision.route = Route::Gpu;
      Dispatcher::GpuJob job =
          twin_.enqueue_gemv_gpu<T, T>(decision, desc, alpha, a, x, beta, y);
      twin_.finish_gpu_job(job);
    } else {
      decision.route = Route::Cpu;
      twin_.run_gemv_cpu<T, T>(decision, desc, alpha, a, x, beta, y);
    }
    account(desc, spent() - before);
    return true;
  }

  [[nodiscard]] double spent() const {
    const DispatchStats s = twin_.stats();
    return s.cpu_seconds + s.gpu_seconds;
  }

  void account(const OpDesc& desc, double gpu_s) {
    const double cpu_s = twin_.modelled_costs(desc).cpu_s;
    always_cpu_s += cpu_s;
    oracle_s += std::min(cpu_s, gpu_s);
  }

  Dispatcher& twin_;
};

struct FactorState {
  std::vector<double> general;  ///< getrf / geqrf input
  std::vector<double> spd;      ///< potrf input
  std::vector<Factor> work;     ///< one per solve
};

std::unique_ptr<FactorState> set_up(std::uint64_t seed) {
  auto s = std::make_unique<FactorState>();
  const auto nn = static_cast<std::size_t>(kDim) * kDim;
  s->general.resize(nn);
  fill(s->general, seed * 31 + 1);
  std::vector<double> g(nn);
  fill(g, seed * 31 + 2);
  s->spd.resize(nn);
  blob::blas::gemm(Transpose::No, Transpose::Yes, kDim, kDim, kDim, 1.0,
                   g.data(), kDim, g.data(), kDim, 0.0, s->spd.data(), kDim);
  for (int i = 0; i < kDim; ++i) {
    s->spd[static_cast<std::size_t>(i) * (kDim + 1)] += kDim;
  }
  s->work.resize(kSolves);
  for (Factor& f : s->work) f.a.resize(nn);
  return s;
}

void reset_input(const FactorState& s, std::size_t solver, Factor& f) {
  f.a = solver == 1 ? s.spd : s.general;
  f.ipiv.clear();
  f.tau.clear();
}

/// The fields of a solve that must repeat exactly across rounds.
auto repeatable_fields(const DispatchStats& st) {
  return std::make_tuple(st.calls, st.cpu_routed, st.gpu_routed,
                         st.cold_starts, st.explores, st.residency_hits,
                         st.residency_misses, st.cpu_seconds, st.gpu_seconds,
                         st.h2d_bytes_moved);
}

struct Solve {
  double wall_s = 0.0;
  DispatchStats stats;
  std::vector<Route> routes;
};

Solve routed_solve(FactorState& s, std::size_t idx, bool functional,
                   std::vector<double>* latencies) {
  const std::size_t solver = idx / kNumProfiles;
  blob::dispatch::DispatcherConfig config = config_for(idx % kNumProfiles);
  config.functional = functional;
  Solve out;
  const auto start = Clock::now();
  {
    Dispatcher d(config);
    TimedHook hook(d, latencies);
    blob::blas::cblas_set_dispatch_hook(&hook);
    try {
      factor(solver, s.work[idx]);
    } catch (...) {
      blob::blas::cblas_set_dispatch_hook(nullptr);
      throw;
    }
    blob::blas::cblas_set_dispatch_hook(nullptr);
    out.stats = d.stats();
    if (latencies == nullptr) {
      for (const auto& r : d.trace().snapshot()) out.routes.push_back(r.route);
    }
  }
  out.wall_s = seconds_since(start);
  return out;
}

}  // namespace

int run_factorize(const Options& options) {
  const std::size_t threads = 1 + (kPoolThreads - 1);
  require_thread_budget(threads, "factorize");
  print_fingerprint(options, threads);
  Report report;

  std::unique_ptr<FactorState> state =
      timed_setups(report, [&] { return set_up(options.seed); });
  FactorState& s = *state;

  // Hook-free references, one per solver.
  std::vector<Factor> refs(kNumSolvers);
  for (std::size_t solver = 0; solver < kNumSolvers; ++solver) {
    reset_input(s, solver, refs[solver]);
    factor(solver, refs[solver]);
  }

  std::uint64_t attempted = 0, failed = 0;
  auto check = [&](std::size_t idx) {
    ++attempted;
    if (!same_factor(refs[idx / kNumProfiles], s.work[idx])) {
      std::cerr << "mismatch: " << kSolvers[idx / kNumProfiles] << " on "
                << kProfiles[idx % kNumProfiles] << "\n";
      ++failed;
    }
  };

  // Constant-policy baselines on twins, outside the timed phase.
  std::vector<double> always_cpu(kSolves), always_gpu(kSolves),
      oracle(kSolves);
  for (std::size_t idx = 0; idx < kSolves; ++idx) {
    reset_input(s, idx / kNumProfiles, s.work[idx]);
    Dispatcher twin(config_for(idx % kNumProfiles));
    AlwaysGpuHook hook(twin);
    blob::blas::cblas_set_dispatch_hook(&hook);
    factor(idx / kNumProfiles, s.work[idx]);
    blob::blas::cblas_set_dispatch_hook(nullptr);
    check(idx);
    const DispatchStats st = twin.stats();
    always_gpu[idx] = st.cpu_seconds + st.gpu_seconds;
    always_cpu[idx] = hook.always_cpu_s;
    oracle[idx] = hook.oracle_s;
  }

  // Timed rounds of nine solves. Round 0 fixes the modelled numbers;
  // every later round must repeat them exactly. A traced run alternates
  // traced and untraced rounds after round 0.
  Replays solve_walls, seam_calls;  // parts: the nine solves; the seam calls
  std::vector<double> untraced, traced, latencies, all_latencies;
  std::vector<DispatchStats> first(kSolves);
  const std::size_t min_rounds = options.trace ? 7 : 1;
  const auto phase_start = Clock::now();
  for (std::size_t round = 0;
       round < min_rounds || seconds_since(phase_start) < options.seconds;
       ++round) {
    const bool tracing = options.trace && round > 0 && round % 2 == 0;
    for (std::size_t idx = 0; idx < kSolves; ++idx) {
      reset_input(s, idx / kNumProfiles, s.work[idx]);
    }
    blob::obs::set_enabled(tracing);
    double wall = 0.0;
    std::vector<Solve> solves;
    for (std::size_t idx = 0; idx < kSolves; ++idx) {
      solves.push_back(
          routed_solve(s, idx, true, tracing ? nullptr : &latencies));
      wall += solves.back().wall_s;
    }
    blob::obs::set_enabled(false);
    for (std::size_t idx = 0; idx < kSolves; ++idx) {
      check(idx);
      if (round == 0) {
        first[idx] = solves[idx].stats;
      } else if (repeatable_fields(first[idx]) != repeatable_fields(solves[idx].stats)) {
        std::cerr << "nondeterministic: " << kSolvers[idx / kNumProfiles]
                  << " on " << kProfiles[idx % kNumProfiles]
                  << " routed differently in round " << round << "\n";
        ++failed;
      }
    }
    if (tracing) {
      (void)blob::obs::drain_events();  // keep the rings from filling
      traced.push_back(wall);
    } else {
      untraced.push_back(wall);
      for (std::size_t idx = 0; idx < kSolves; ++idx) {
        solve_walls.add(idx, solves[idx].wall_s);
      }
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        seam_calls.add(i, latencies[i]);
      }
      all_latencies.insert(all_latencies.end(), latencies.begin(),
                           latencies.end());
      latencies.clear();
    }
  }
  report.attempted(attempted);
  report.failed(failed);
  report_replays(report, solve_walls, seam_calls);

  std::vector<double> vs_best, vs_oracle;
  std::vector<double> routed(kSolves);
  for (std::size_t idx = 0; idx < kSolves; ++idx) {
    routed[idx] = first[idx].cpu_seconds + first[idx].gpu_seconds;
    vs_best.push_back(routed[idx] /
                      std::min(always_cpu[idx], always_gpu[idx]));
    vs_oracle.push_back(routed[idx] / oracle[idx]);
    std::printf(
        "modelled %s/%-12s routed %.6e s  oracle %.6e s  cpu %.6e s  "
        "gpu(resident) %.6e s  vs_best_const %.4f\n",
        kSolvers[idx / kNumProfiles], kProfiles[idx % kNumProfiles],
        routed[idx], oracle[idx], always_cpu[idx], always_gpu[idx],
        vs_best.back());
  }
  report.set("vs_best_const", geomean(vs_best));
  report.set("vs_oracle", geomean(vs_oracle));

  if (options.trace) {
    std::uint64_t ops = 0;
    for (std::size_t idx = 0; idx < kSolves; ++idx) {
      ops += first[idx].calls;
      report.set(std::string("lapack.") + kSolvers[idx / kNumProfiles] + "." +
                     kProfiles[idx % kNumProfiles] + ".vs_best_const",
                 vs_best[idx]);
    }
    report.set("lapack.seam_ops", static_cast<double>(ops));
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      double r = 0.0, o = 0.0;
      for (std::size_t solver = 0; solver < kNumSolvers; ++solver) {
        r += routed[solver * kNumProfiles + p];
        o += oracle[solver * kNumProfiles + p];
      }
      report.set(std::string("dispatch.") + kProfiles[p] + ".vs_oracle", r / o);
    }
    report_dispatch_counts(report, first);
    report.set("dispatch.call_p99_ms", quantile(all_latencies, 0.99) * 1e3);
    report.set("obs.trace_overhead_frac",
               median(traced) /
                       median(std::vector<double>(untraced.begin() + 1,
                                                  untraced.end())) -
                   1.0);

    // The hook-free round: nine solves with no hook installed.
    std::vector<double> ref_rounds;
    for (int rep = 0; rep < 3; ++rep) {
      double wall = 0.0;
      for (std::size_t idx = 0; idx < kSolves; ++idx) {
        reset_input(s, idx / kNumProfiles, s.work[idx]);
        const auto start = Clock::now();
        factor(idx / kNumProfiles, s.work[idx]);
        wall += seconds_since(start);
      }
      ref_rounds.push_back(wall);
    }
    report.set("lapack.ref_s", median(ref_rounds));

    // simgpu twins: one round with functional execution on and off.
    double wall[2] = {0.0, 0.0};
    double gpu_s = 0.0, h2d = 0.0;
    std::vector<Route> routes[2];
    std::string twin_error;
    for (int functional = 1; functional >= 0; --functional) {
      for (std::size_t idx = 0; idx < kSolves; ++idx) {
        reset_input(s, idx / kNumProfiles, s.work[idx]);
        try {
          const Solve sv = routed_solve(s, idx, functional == 1, nullptr);
          wall[functional] += sv.wall_s;
          routes[functional].insert(routes[functional].end(),
                                    sv.routes.begin(), sv.routes.end());
          if (functional == 1) {
            gpu_s += sv.stats.gpu_seconds;
            h2d += sv.stats.h2d_bytes_moved;
          }
        } catch (const std::exception& e) {
          twin_error = std::string("timing-only twin failed: ") + e.what();
        }
      }
    }
    report.set("simgpu.h2d_mb", h2d / 1e6);
    if (twin_error.empty() && routes[0] != routes[1]) {
      twin_error =
          "functional and timing-only twins routed differently (the "
          "factorization reads values the timing-only device never writes)";
    }
    if (!twin_error.empty()) {
      report.unavailable("simgpu.functional_s", twin_error);
      report.unavailable("simgpu.wall_per_modelled", twin_error);
    } else {
      report.set("simgpu.functional_s", wall[1] - wall[0]);
      report.set("simgpu.wall_per_modelled", (wall[1] - wall[0]) / gpu_s);
    }

    // Layer measurements at the trailing-update shapes of the stream.
    std::vector<OpDesc> descs;
    {
      Dispatcher d(config_for(0));
      d.install();
      for (std::size_t solver = 0; solver < kNumSolvers; ++solver) {
        reset_input(s, solver, s.work[solver]);
        factor(solver, s.work[solver]);
      }
      d.uninstall();
      std::set<std::tuple<int, int, int, int, int, int>> seen;
      const auto records = d.trace().snapshot();
      for (std::size_t i = 0; i < records.size(); i += 7) {
        const auto& r = records[i];
        const auto key = std::make_tuple(
            static_cast<int>(r.op), static_cast<int>(r.trans_a),
            static_cast<int>(r.trans_b), static_cast<int>(r.m),
            static_cast<int>(r.n), static_cast<int>(r.k));
        if (!seen.insert(key).second || descs.size() >= 12) continue;
        descs.push_back(r.op == blob::core::KernelOp::Gemm
                            ? OpDesc::gemm(r.precision, r.trans_a, r.trans_b,
                                           r.m, r.n, r.k, 0, 0, 0, true, true)
                            : OpDesc::gemv(r.precision, r.trans_a, r.m, r.n,
                                           0, 1, 1, true, true));
      }
    }
    state.reset();
    measure_blas(report, descs, kPoolThreads);
    measure_small_calls(report);
    measure_parallel_region(report, kPoolThreads);
    measure_model_and_plan(report, config_for(0), descs);
    measure_seam(report, config_for(0));
    measure_router(report, descs);
    const std::string fleet = "factorize drives no DeviceFleet";
    report.unavailable("serve.submit_us", fleet);
    report.unavailable("serve.lat_p99_ms", fleet);
    report.unavailable("serve.device_skew", fleet);
    report.unavailable("serve.modelled_vs_oracle", fleet);
  }
  return report.emit(options.trace);
}

}  // namespace perfbench
