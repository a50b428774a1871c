// serve-small: a two-device DeviceFleet (dawn, lumi) driven as a closed
// loop by one client thread. The client keeps one burst of 32
// independent small requests in flight (four of each of eight shapes:
// GEMMs of 32-96, GEMVs of 256-512, f32/f64), waits for all of them,
// checks them, and sends the next burst. One client plus two fleet workers leaves a processor of a
// four-way host free, which keeps the wall figures steady. Every request owns its output buffer. Deadlines are off:
// SLO shedding is stamped on wall time and would make failures depend on
// the host.
//
// Nearly every op routes to the CPU, so the cost measured is per-call
// overhead: submit, router, shard queue, worker, plan and small kernels.
//
// The fleet's own modelled ratios read worker progress in wall time and
// are not yet deterministic, so vs_oracle / vs_best_const here come from
// replaying the seeded request stream through one lone Dispatcher per
// fleet profile; the fleet ratio is reported per layer only.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "blas/cblas.hpp"
#include "obs/trace.hpp"
#include "serve/fleet.hpp"
#include "sysprofile/profile.hpp"

namespace perfbench {
namespace {

using blob::core::KernelOp;
using blob::core::OpDesc;
using blob::dispatch::Dispatcher;
using blob::dispatch::DispatchStats;
using blob::model::Precision;

constexpr std::size_t kCopies = 4;        ///< requests per shape in a burst
constexpr std::size_t kModelBursts = 32;  ///< the modelled stream
const char* const kProfiles[] = {"dawn", "lumi"};
constexpr std::size_t kNumProfiles = std::size(kProfiles);

/// One request type's operands: A and B (or x), and its reference output.
struct TypeData {
  OpDesc desc;
  std::vector<float> af, bf, ref_f;
  std::vector<double> ad, bd, ref_d;
};

/// Output of one in-flight request.
struct Slot {
  std::vector<float> f;
  std::vector<double> d;
  void poison() {
    std::fill(f.begin(), f.end(), 1e30F);
    std::fill(d.begin(), d.end(), 1e300);
  }
};

std::size_t out_len(const OpDesc& d) {
  return static_cast<std::size_t>(d.op == KernelOp::Gemm ? d.m * d.n
                                                         : d.y_len());
}

struct ServeState {
  std::vector<TypeData> types;
  /// One burst of outputs; request i has shape i % types.size().
  std::vector<Slot> slots;
  std::unique_ptr<blob::serve::DeviceFleet> fleet;
};

blob::dispatch::DispatcherConfig base_config() {
  blob::dispatch::DispatcherConfig config;
  config.cpu_threads = 1;
  config.residency = blob::dispatch::ResidencyPolicy::Off;
  return config;
}

std::unique_ptr<ServeState> set_up(std::uint64_t seed) {
  auto s = std::make_unique<ServeState>();
  for (const OpDesc& d : serve_small_shapes()) {
    TypeData t;
    t.desc = d;
    const auto a = static_cast<std::size_t>(d.rows_a() * d.cols_a());
    const auto b = static_cast<std::size_t>(
        d.op == KernelOp::Gemm ? d.rows_b() * d.cols_b() : d.x_len());
    const std::uint64_t salt = seed * 1000 + s->types.size() * 2;
    if (d.precision == Precision::F32) {
      t.af.resize(a);
      t.bf.resize(b);
      t.ref_f.resize(out_len(d));
      fill(t.af, salt);
      fill(t.bf, salt + 1);
    } else {
      t.ad.resize(a);
      t.bd.resize(b);
      t.ref_d.resize(out_len(d));
      fill(t.ad, salt);
      fill(t.bd, salt + 1);
    }
    s->types.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < kCopies * s->types.size(); ++i) {
    const TypeData& t = s->types[i % s->types.size()];
    Slot slot;
    slot.f.resize(t.ref_f.size());
    slot.d.resize(t.ref_d.size());
    slot.poison();
    s->slots.push_back(std::move(slot));
  }
  blob::serve::FleetConfig fc;
  for (const char* p : kProfiles) fc.devices.push_back(blob::profile::by_name(p));
  fc.base = base_config();
  fc.slo.interactive_ms = 0.0;  // deadlines off: nothing is ever shed
  fc.slo.batch_ms = 0.0;
  s->fleet = std::make_unique<blob::serve::DeviceFleet>(fc);
  return s;
}

/// Hook-free (or hooked, when a dispatcher is installed) cblas call.
void call_blas(const TypeData& t, Slot& out) {
  const OpDesc& d = t.desc;
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  const auto k = static_cast<int>(d.k);
  if (d.op == KernelOp::Gemm) {
    if (d.precision == Precision::F32) {
      cblas_sgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.0F,
                  t.af.data(), m, t.bf.data(), k, 0.0F, out.f.data(), m);
    } else {
      cblas_dgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.0,
                  t.ad.data(), m, t.bd.data(), k, 0.0, out.d.data(), m);
    }
  } else if (d.precision == Precision::F32) {
    cblas_sgemv(CblasColMajor, CblasNoTrans, m, n, 1.0F, t.af.data(), m,
                t.bf.data(), 1, 0.0F, out.f.data(), 1);
  } else {
    cblas_dgemv(CblasColMajor, CblasNoTrans, m, n, 1.0, t.ad.data(), m,
                t.bd.data(), 1, 0.0, out.d.data(), 1);
  }
}

std::future<blob::serve::ServeResult> submit(blob::serve::DeviceFleet& fleet,
                                             const TypeData& t, Slot& out) {
  const OpDesc& d = t.desc;
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  const auto k = static_cast<int>(d.k);
  constexpr auto cls = blob::serve::RequestClass::Interactive;
  constexpr auto no = blob::blas::Transpose::No;
  if (d.op == KernelOp::Gemm) {
    if (d.precision == Precision::F32) {
      return fleet.submit_gemm<float>(cls, no, no, m, n, k, 1.0F, t.af.data(),
                                      m, t.bf.data(), k, 0.0F, out.f.data(),
                                      m);
    }
    return fleet.submit_gemm<double>(cls, no, no, m, n, k, 1.0, t.ad.data(),
                                     m, t.bd.data(), k, 0.0, out.d.data(), m);
  }
  if (d.precision == Precision::F32) {
    return fleet.submit_gemv<float>(cls, no, m, n, 1.0F, t.af.data(), m,
                                    t.bf.data(), 1, 0.0F, out.f.data(), 1);
  }
  return fleet.submit_gemv<double>(cls, no, m, n, 1.0, t.ad.data(), m,
                                   t.bd.data(), 1, 0.0, out.d.data(), 1);
}

/// Bitwise check of one output against its reference, then poison.
bool verify_and_poison(const TypeData& t, Slot& out) {
  const bool ok =
      std::memcmp(out.f.data(), t.ref_f.data(), out.f.size() * sizeof(float)) ==
          0 &&
      std::memcmp(out.d.data(), t.ref_d.data(), out.d.size() * sizeof(double)) ==
          0;
  out.poison();
  return ok;
}

/// Seeded request order of burst `burst`.
std::vector<std::size_t> burst_order(const ServeState& s, std::uint64_t seed,
                                     std::uint64_t burst) {
  return permutation(s.slots.size(), seed * 0x9e3779b97f4a7c15ULL + burst);
}

/// One segment of the closed loop; each of its burst cycles is a window
/// of the wall metrics.
struct Segment {
  double wall_s = 0.0;
  std::vector<double> latency_s;
  std::vector<double> submit_s;
  std::vector<double> cycle_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The client for `seconds`: submit a burst, wait for every future, check
/// the outputs, repeat. `burst` numbers the bursts across segments.
Segment run_segment(ServeState& s, std::uint64_t seed, std::uint64_t& burst,
                    double seconds) {
  const std::size_t n = s.slots.size();
  const std::size_t shapes = s.types.size();
  std::vector<std::future<blob::serve::ServeResult>> futures(n);
  std::vector<Clock::time_point> submitted(n);
  Segment seg;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    const std::vector<std::size_t> order = burst_order(s, seed, burst++);
    const auto cycle_start = Clock::now();
    for (const std::size_t i : order) {
      submitted[i] = Clock::now();
      futures[i] = submit(*s.fleet, s.types[i % shapes], s.slots[i]);
      seg.submit_s.push_back(seconds_since(submitted[i]));
    }
    for (const std::size_t i : order) {
      const blob::serve::ServeResult r = futures[i].get();
      seg.latency_s.push_back(seconds_since(submitted[i]));
      if (r.outcome != blob::serve::Outcome::Completed) ++seg.failed;
    }
    seg.cycle_s.push_back(seconds_since(cycle_start));
    for (std::size_t i = 0; i < n; ++i) {
      if (!verify_and_poison(s.types[i % shapes], s.slots[i])) {
        std::cerr << "mismatch: serve request shape " << i % shapes << "\n";
        ++seg.failed;
      }
    }
    seg.attempted += n;
  }
  seg.wall_s = seconds_since(start);
  return seg;
}

struct ModelledPass {
  double wall_s = 0.0;  ///< summed wall time of the calls alone
  std::vector<blob::dispatch::Route> routes;
  std::vector<DispatchStats> stats;
  std::vector<Modelled> modelled;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The first kModelBursts bursts of the seeded request stream through one
/// lone dispatcher per profile.
ModelledPass modelled_pass(ServeState& s, std::uint64_t seed, bool functional) {
  ModelledPass pass;
  for (const char* p : kProfiles) {
    blob::dispatch::DispatcherConfig config = base_config();
    config.profile = blob::profile::by_name(p);
    config.functional = functional;
    config.trace_capacity = kModelBursts * s.slots.size();
    Dispatcher d(config);
    Modelled m;
    for (std::uint64_t b = 0; b < kModelBursts; ++b) {
      for (const std::size_t i : burst_order(s, seed, b)) {
        const TypeData& t = s.types[i % s.types.size()];
        d.install();
        const auto start = Clock::now();
        call_blas(t, s.slots[i]);
        pass.wall_s += seconds_since(start);
        d.uninstall();
        m.add_call(d.modelled_costs(t.desc));
        if (functional) {
          ++pass.attempted;
          if (!verify_and_poison(t, s.slots[i])) ++pass.failed;
        }
      }
    }
    const DispatchStats st = d.stats();
    m.routed_s = st.cpu_seconds + st.gpu_seconds;
    pass.modelled.push_back(m);
    pass.stats.push_back(st);
    for (const auto& r : d.trace().snapshot()) pass.routes.push_back(r.route);
  }
  return pass;
}

}  // namespace

int run_serve_small(const Options& options) {
  // One client plus one worker per device; the pools have one thread.
  const std::size_t threads = 1 + kNumProfiles;
  require_thread_budget(threads, "serve-small");
  print_fingerprint(options, threads);
  Report report;

  std::unique_ptr<ServeState> state =
      timed_setups(report, [&] { return set_up(options.seed); });
  ServeState& s = *state;

  // Hook-free references.
  for (TypeData& t : s.types) {
    Slot ref;
    ref.f.resize(t.ref_f.size());
    ref.d.resize(t.ref_d.size());
    call_blas(t, ref);
    t.ref_f = ref.f;
    t.ref_d = ref.d;
  }

  const ModelledPass pass = modelled_pass(s, options.seed, true);
  report.attempted(pass.attempted);
  report.failed(pass.failed);
  double routed = 0.0, oracle = 0.0, best_const = 0.0;
  for (std::size_t p = 0; p < kNumProfiles; ++p) {
    const Modelled& m = pass.modelled[p];
    routed += m.routed_s;
    oracle += m.oracle_s;
    best_const += m.best_const_s();
    std::printf(
        "modelled %-5s routed %.6e s  oracle %.6e s  cpu %.6e s  gpu %.6e s\n",
        kProfiles[p], m.routed_s, m.oracle_s, m.always_cpu_s, m.always_gpu_s);
  }
  report.set("vs_oracle", routed / oracle);
  report.set("vs_best_const", routed / best_const);

  // Warm-up, then the timed closed loop in one-second segments. A traced
  // run alternates untraced and traced segments.
  std::uint64_t burst = kModelBursts;
  (void)run_segment(s, options.seed, burst, 0.5);
  const auto segments = static_cast<std::size_t>(std::max(
      options.trace ? 8.0 : 2.0, std::round(options.seconds)));
  std::vector<Segment> untraced, traced;
  for (std::size_t i = 0; i < segments; ++i) {
    const bool tracing = options.trace && i % 2 == 1;
    blob::obs::set_enabled(tracing);
    Segment seg = run_segment(s, options.seed, burst,
                              options.seconds / static_cast<double>(segments));
    blob::obs::set_enabled(false);
    report.attempted(seg.attempted);
    report.failed(seg.failed);
    if (tracing) {
      (void)blob::obs::drain_events();  // keep the rings from filling
      traced.push_back(std::move(seg));
    } else {
      untraced.push_back(std::move(seg));
    }
  }
  s.fleet->flush();

  Windows windows;
  std::vector<double> latencies, submits;
  for (const Segment& seg : untraced) {
    latencies.insert(latencies.end(), seg.latency_s.begin(),
                     seg.latency_s.end());
    submits.insert(submits.end(), seg.submit_s.begin(), seg.submit_s.end());
    const std::size_t n = s.slots.size();
    for (std::size_t c = 0; c < seg.cycle_s.size(); ++c) {
      const auto first = seg.latency_s.begin() + static_cast<std::ptrdiff_t>(c * n);
      std::vector<double> cycle_latencies(first, first + static_cast<std::ptrdiff_t>(n));
      windows.add(seg.cycle_s[c], static_cast<double>(n), cycle_latencies,
                  seg.cycle_s[c]);
    }
  }
  windows.report(report);
  std::printf("closed loop: 1 client x burst %zu, %zu requests timed\n",
              s.slots.size(), latencies.size());

  if (options.trace) {
    const blob::serve::FleetStats fs = s.fleet->stats();
    const double c0 = static_cast<double>(fs.devices[0].completed);
    const double c1 = static_cast<double>(fs.devices[1].completed);
    report.set("serve.device_skew", std::abs(c0 - c1) / (c0 + c1));
    report.set("serve.modelled_vs_oracle", fs.busy_s / fs.oracle_s);
    report.set("serve.submit_us", median(submits) * 1e6);
    report.set("serve.lat_p99_ms", quantile(latencies, 0.99) * 1e3);
    report.unavailable("dispatch.call_p99_ms",
                       "serve-small times requests, not seam calls");
    const auto rate = [](const std::vector<Segment>& segs) {
      std::vector<double> r;
      for (const Segment& seg : segs) {
        r.push_back(static_cast<double>(seg.latency_s.size()) / seg.wall_s);
      }
      return median(r);
    };
    report.set("obs.trace_overhead_frac", rate(untraced) / rate(traced) - 1.0);

    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      report.set(std::string("dispatch.") + kProfiles[p] + ".vs_oracle",
                 pass.modelled[p].routed_s / pass.modelled[p].oracle_s);
    }
    report.unavailable("dispatch.isambard-ai.vs_oracle",
                       "isambard-ai is not in the serve-small fleet");
    report_dispatch_counts(report, pass.stats);

    const ModelledPass twin = modelled_pass(s, options.seed, false);
    double gpu_s = 0.0, h2d = 0.0;
    for (const DispatchStats& st : pass.stats) {
      gpu_s += st.gpu_seconds;
      h2d += st.h2d_bytes_moved;
    }
    report.set("simgpu.h2d_mb", h2d / 1e6);
    if (twin.routes != pass.routes) {
      const std::string why =
          "functional and timing-only twins routed differently";
      report.unavailable("simgpu.functional_s", why);
      report.unavailable("simgpu.wall_per_modelled", why);
    } else {
      const double functional_s = pass.wall_s - twin.wall_s;
      report.set("simgpu.functional_s", functional_s);
      if (gpu_s > 0.0) {
        report.set("simgpu.wall_per_modelled", functional_s / gpu_s);
      } else {
        report.unavailable("simgpu.wall_per_modelled",
                           "no call routed to the GPU");
      }
    }

    std::vector<OpDesc> descs;
    for (const TypeData& t : s.types) descs.push_back(t.desc);
    state.reset();
    blob::dispatch::DispatcherConfig dawn = base_config();
    dawn.profile = blob::profile::dawn();
    measure_blas(report, descs, 1);
    measure_small_calls(report);
    measure_parallel_region(report, 1);
    measure_model_and_plan(report, dawn, descs);
    measure_seam(report, dawn);
    measure_router(report, descs);
    const std::string solver = "serve-small runs no factorization";
    report.unavailable("lapack.ref_s", solver);
    report.unavailable("lapack.seam_ops", solver);
    for (const char* f : {"getrf", "potrf", "geqrf"}) {
      for (const char* p : {"dawn", "lumi", "isambard-ai"}) {
        report.unavailable(std::string("lapack.") + f + "." + p +
                               ".vs_best_const",
                           solver);
      }
    }
  }
  return report.emit(options.trace);
}

}  // namespace perfbench
