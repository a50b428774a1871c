// offload-mix: blob-serve's 11-class GEMM/GEMV mix, replayed through one
// Dispatcher installed as the cblas hook (residency off) on each of the
// dawn, lumi and isambard-ai profiles, from one caller thread.
//
// The stream is a sequence of blocks. Every block holds the same fixed
// multiset of 25 calls, so each window of work (one block on each
// profile) does identical work and the modelled totals of the constant
// policies do not depend on the seed. The modelled stream plays the
// blocks in seeded orders on cold dispatchers. The steady wall windows
// play one fixed order on dispatchers whose tables a timing-only twin
// learned from that order, so their routes, and with them the wall work,
// are the same for every seed. Each call writes its own output slot,
// which is checked against a hook-free reference after the block and
// then poisoned, so a skipped or wrong write always shows.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "blas/cblas.hpp"
#include "blas/half.hpp"
#include "core/validate.hpp"
#include "obs/trace.hpp"
#include "sysprofile/profile.hpp"

namespace perfbench {
namespace {

using blob::blas::f16;
using blob::blas::Transpose;
using blob::core::ErrorBudget;
using blob::core::KernelOp;
using blob::core::OpDesc;
using blob::dispatch::Dispatcher;
using blob::dispatch::DispatchStats;
using blob::model::Precision;

constexpr Transpose kN = Transpose::No;
constexpr Transpose kT = Transpose::Yes;

struct MixClass {
  const char* label;
  KernelOp op;
  Precision precision;
  Transpose ta, tb;
  int m, n, k;
  int per_block;          ///< calls of this class in every block
  int relaxed_per_block;  ///< of which run under ErrorBudget::relaxed()
};

// blob-serve's classes and weights, scaled to a 25-call block. Half of the
// f64 GEMMs carry the relaxed budget, so the emulated arm is in play.
constexpr MixClass kMix[] = {
    {"gemm-small-f32", KernelOp::Gemm, Precision::F32, kN, kN, 48, 48, 48, 6, 0},
    {"gemm-mid-f32", KernelOp::Gemm, Precision::F32, kN, kN, 256, 256, 256, 3, 0},
    {"gemm-mid-f32-tn", KernelOp::Gemm, Precision::F32, kT, kN, 256, 256, 256, 2, 0},
    {"gemm-large-f32", KernelOp::Gemm, Precision::F32, kN, kN, 768, 768, 768, 3, 0},
    {"gemm-large-f32-nt", KernelOp::Gemm, Precision::F32, kN, kT, 640, 640, 640, 1, 0},
    {"gemm-mid-f64", KernelOp::Gemm, Precision::F64, kN, kN, 320, 320, 320, 2, 1},
    {"gemm-large-f64", KernelOp::Gemm, Precision::F64, kN, kN, 640, 640, 640, 2, 1},
    {"gemm-mid-f16", KernelOp::Gemm, Precision::F16, kN, kN, 384, 384, 384, 2, 0},
    {"gemv-mid-f32", KernelOp::Gemv, Precision::F32, kN, kN, 768, 768, 1, 2, 0},
    {"gemv-mid-f32-t", KernelOp::Gemv, Precision::F32, kT, kN, 768, 768, 1, 1, 0},
    {"gemv-large-f64", KernelOp::Gemv, Precision::F64, kN, kN, 1536, 1536, 1, 1, 0},
};
constexpr std::size_t kClasses = std::size(kMix);
constexpr std::size_t kBlocksPerPass = 8;  ///< the fixed modelled stream
/// Cap on the blocks a steady dispatcher's twin learns from.
constexpr std::size_t kMaxWarmBlocks = 64;
constexpr std::uint64_t kSteadyOrderSeed = 1;  ///< not the run's seed
constexpr std::size_t kPoolThreads = 2;
const char* const kProfiles[] = {"dawn", "lumi", "isambard-ai"};
constexpr std::size_t kNumProfiles = std::size(kProfiles);

/// Operand and output element counts of one class.
struct Extents {
  std::size_t a, b, c;
};

Extents extents(const MixClass& mc) {
  const auto m = static_cast<std::size_t>(mc.m);
  const auto n = static_cast<std::size_t>(mc.n);
  const auto k = static_cast<std::size_t>(mc.k);
  if (mc.op == KernelOp::Gemm) return {m * k, k * n, m * n};
  return {m * n, mc.ta == kN ? n : m, mc.ta == kN ? m : n};
}

/// Typed storage; only the vectors of the class's precision are used.
struct Buffers {
  std::vector<float> f;
  std::vector<double> d;
  std::vector<f16> h;

  void resize(Precision p, std::size_t n) {
    if (p == Precision::F32) f.resize(n);
    if (p == Precision::F64) d.resize(n);
    if (p == Precision::F16) h.resize(n);
  }
  void fill_seeded(Precision p, std::uint64_t seed) {
    if (p == Precision::F32) perfbench::fill(f, seed);
    if (p == Precision::F64) perfbench::fill(d, seed);
    if (p == Precision::F16) {
      std::vector<float> tmp(h.size());
      perfbench::fill(tmp, seed);
      for (std::size_t i = 0; i < h.size(); ++i) h[i] = f16(tmp[i]);
    }
  }
  /// A value no correct result of these inputs can hold.
  void poison() {
    std::fill(f.begin(), f.end(), 1e30F);
    std::fill(d.begin(), d.end(), 1e300);
    std::fill(h.begin(), h.end(), f16(60000.0F));
  }
};

struct Slot {
  std::size_t cls = 0;
  bool relaxed = false;
  Buffers out;
};

CBLAS_TRANSPOSE cblas_trans(Transpose t) {
  return t == kT ? CblasTrans : CblasNoTrans;
}

void call_blas(const MixClass& mc, const Buffers& a, const Buffers& b,
           Buffers& c) {
  if (mc.op == KernelOp::Gemm) {
    const int lda = mc.ta == kN ? mc.m : mc.k;
    const int ldb = mc.tb == kN ? mc.k : mc.n;
    const auto ta = cblas_trans(mc.ta);
    const auto tb = cblas_trans(mc.tb);
    if (mc.precision == Precision::F16) {
      cblas_hgemm(CblasColMajor, ta, tb, mc.m, mc.n, mc.k, 1.0F, a.h.data(),
                  lda, b.h.data(), ldb, 0.0F, c.h.data(), mc.m);
    } else if (mc.precision == Precision::F32) {
      cblas_sgemm(CblasColMajor, ta, tb, mc.m, mc.n, mc.k, 1.0F, a.f.data(),
                  lda, b.f.data(), ldb, 0.0F, c.f.data(), mc.m);
    } else {
      cblas_dgemm(CblasColMajor, ta, tb, mc.m, mc.n, mc.k, 1.0, a.d.data(),
                  lda, b.d.data(), ldb, 0.0, c.d.data(), mc.m);
    }
  } else if (mc.precision == Precision::F32) {
    cblas_sgemv(CblasColMajor, cblas_trans(mc.ta), mc.m, mc.n, 1.0F,
                a.f.data(), mc.m, b.f.data(), 1, 0.0F, c.f.data(), 1);
  } else {
    cblas_dgemv(CblasColMajor, cblas_trans(mc.ta), mc.m, mc.n, 1.0,
                a.d.data(), mc.m, b.d.data(), 1, 0.0, c.d.data(), 1);
  }
}

OpDesc desc_of(const MixClass& mc, bool relaxed, blob::core::TransferMode mode) {
  OpDesc d =
      mc.op == KernelOp::Gemm
          ? OpDesc::gemm(mc.precision, mc.ta, mc.tb, mc.m, mc.n, mc.k,
                         mc.ta == kN ? mc.m : mc.k, mc.tb == kN ? mc.k : mc.n,
                         mc.m, true, true, mode)
          : OpDesc::gemv(mc.precision, mc.ta, mc.m, mc.n, mc.m, 1, 1, true,
                         true, mode);
  d.budget = relaxed ? ErrorBudget::relaxed() : ErrorBudget::exact();
  return d;
}

/// Everything a run owns; built (and timed) several times for setup_s.
struct MixState {
  std::vector<Buffers> a, b, ref;
  std::vector<Slot> slots;
  std::vector<std::vector<std::size_t>> blocks;  ///< slot order per block
  std::vector<std::size_t> steady_order;  ///< slot order of steady windows
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;
};

blob::dispatch::DispatcherConfig config_for(const char* profile) {
  blob::dispatch::DispatcherConfig config;
  config.profile = blob::profile::by_name(profile);
  config.cpu_threads = kPoolThreads;
  config.residency = blob::dispatch::ResidencyPolicy::Off;
  return config;
}

std::unique_ptr<MixState> set_up(std::uint64_t seed, bool functional) {
  auto s = std::make_unique<MixState>();
  s->a.resize(kClasses);
  s->b.resize(kClasses);
  s->ref.resize(kClasses);
  for (std::size_t ci = 0; ci < kClasses; ++ci) {
    const MixClass& mc = kMix[ci];
    const Extents e = extents(mc);
    s->a[ci].resize(mc.precision, e.a);
    s->b[ci].resize(mc.precision, e.b);
    s->ref[ci].resize(mc.precision, e.c);
    s->a[ci].fill_seeded(mc.precision, seed * 1000 + ci * 2);
    s->b[ci].fill_seeded(mc.precision, seed * 1000 + ci * 2 + 1);
    for (int i = 0; i < mc.per_block; ++i) {
      Slot slot;
      slot.cls = ci;
      slot.relaxed = i < mc.relaxed_per_block;
      slot.out.resize(mc.precision, e.c);
      slot.out.poison();
      s->slots.push_back(std::move(slot));
    }
  }
  for (std::size_t blk = 0; blk < kBlocksPerPass; ++blk) {
    s->blocks.push_back(permutation(s->slots.size(), seed * 7919 + blk));
  }
  s->steady_order = permutation(s->slots.size(), kSteadyOrderSeed);
  for (const char* p : kProfiles) {
    blob::dispatch::DispatcherConfig config = config_for(p);
    config.functional = functional;
    s->dispatchers.push_back(std::make_unique<Dispatcher>(config));
  }
  return s;
}

/// Check every slot of the block against the references, then poison.
std::uint64_t verify_and_poison(MixState& s) {
  std::uint64_t failed = 0;
  for (Slot& slot : s.slots) {
    const MixClass& mc = kMix[slot.cls];
    const blob::core::CompareSpec spec = blob::core::spec_for_budget(
        slot.relaxed ? ErrorBudget::relaxed() : ErrorBudget::exact());
    bool ok = true;
    if (mc.precision == Precision::F16) {
      ok = std::memcmp(slot.out.h.data(), s.ref[slot.cls].h.data(),
                       slot.out.h.size() * sizeof(f16)) == 0;
    } else if (mc.precision == Precision::F32) {
      ok = blob::core::compare_buffers(s.ref[slot.cls].f.data(),
                                       slot.out.f.data(), slot.out.f.size(),
                                       spec)
               .passed;
    } else {
      ok = blob::core::compare_buffers(s.ref[slot.cls].d.data(),
                                       slot.out.d.data(), slot.out.d.size(),
                                       spec)
               .passed;
    }
    if (!ok) {
      std::cerr << "mismatch: " << mc.label
                << (slot.relaxed ? " (relaxed)" : " (exact)") << "\n";
      ++failed;
    }
    slot.out.poison();
  }
  return failed;
}

/// Replay one block (the slots in `order`) on one dispatcher; returns its
/// wall seconds and appends every call's wall latency.
double replay_block(MixState& s, Dispatcher& d,
                    const std::vector<std::size_t>& order,
                    std::vector<double>* latencies) {
  d.install();
  const auto start = Clock::now();
  for (const std::size_t si : order) {
    Slot& slot = s.slots[si];
    const blob::blas::ScopedErrorBudget budget(
        slot.relaxed ? ErrorBudget::relaxed() : ErrorBudget::exact());
    const auto call_start = Clock::now();
    call_blas(kMix[slot.cls], s.a[slot.cls], s.b[slot.cls], slot.out);
    if (latencies != nullptr) latencies->push_back(seconds_since(call_start));
  }
  const double wall = seconds_since(start);
  d.uninstall();
  return wall;
}

/// simgpu twins: the first two blocks on fresh dispatchers with
/// functional execution on and off. Same routes or the metric is void.
void measure_simgpu(Report& report, std::uint64_t seed) {
  double wall[2] = {0.0, 0.0};
  double gpu_s = 0.0, h2d = 0.0;
  std::vector<blob::dispatch::Route> routes[2];
  for (int functional = 1; functional >= 0; --functional) {
    std::unique_ptr<MixState> s = set_up(seed, functional == 1);
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      for (std::size_t blk = 0; blk < 2; ++blk) {
        wall[functional] +=
            replay_block(*s, *s->dispatchers[p], s->blocks[blk], nullptr);
      }
      for (const auto& r : s->dispatchers[p]->trace().snapshot()) {
        routes[functional].push_back(r.route);
      }
      if (functional == 1) {
        gpu_s += s->dispatchers[p]->stats().gpu_seconds;
        h2d += s->dispatchers[p]->stats().h2d_bytes_moved;
      }
    }
  }
  report.set("simgpu.h2d_mb", h2d / 1e6);
  if (routes[0] != routes[1]) {
    const std::string why = "functional and timing-only twins routed differently";
    report.unavailable("simgpu.functional_s", why);
    report.unavailable("simgpu.wall_per_modelled", why);
    return;
  }
  const double functional_s = wall[1] - wall[0];
  report.set("simgpu.functional_s", functional_s);
  if (gpu_s > 0.0) {
    report.set("simgpu.wall_per_modelled", functional_s / gpu_s);
  } else {
    report.unavailable("simgpu.wall_per_modelled", "no GPU-routed call");
  }
}

/// A dispatcher for the steady windows, with the library's default
/// decision-table rules. A timing-only twin replays the fixed steady order
/// until every bucket has the visits that make a restored bucket
/// converged (or kMaxWarmBlocks); the dispatcher starts from the twin's
/// calibration. `blocks` receives the number of blocks replayed.
std::unique_ptr<Dispatcher> steady_dispatcher(MixState& s, const char* profile,
                                              std::size_t& blocks) {
  blob::dispatch::DispatcherConfig config = config_for(profile);
  config.functional = false;
  Dispatcher twin(config);
  const auto converged = [&] {
    for (const auto& [key, state] : twin.make_calibration().entries) {
      if (state.visits < config.table.converged_visits) return false;
    }
    return true;
  };
  for (blocks = 0; blocks < kMaxWarmBlocks && (blocks == 0 || !converged());
       ++blocks) {
    (void)replay_block(s, twin, s.steady_order, nullptr);
  }
  for (Slot& slot : s.slots) slot.out.poison();
  config.functional = true;
  auto d = std::make_unique<Dispatcher>(config);
  d->apply_calibration(twin.make_calibration());
  return d;
}

}  // namespace

int run_offload_mix(const Options& options) {
  const std::size_t threads = 1 + kNumProfiles * (kPoolThreads - 1);
  require_thread_budget(threads, "offload-mix");
  print_fingerprint(options, threads);
  Report report;

  // setup_s: operands, output slots, stream order and the three
  // dispatchers (with their pools); median of several constructions.
  std::unique_ptr<MixState> state =
      timed_setups(report, [&] { return set_up(options.seed, true); });
  MixState& s = *state;

  // Hook-free references, outside every timed interval.
  for (std::size_t ci = 0; ci < kClasses; ++ci) {
    s.ref[ci].poison();
    call_blas(kMix[ci], s.a[ci], s.b[ci], s.ref[ci]);
  }

  // Modelled constant policies and oracle over the fixed pass.
  std::vector<Modelled> modelled(kNumProfiles);
  for (std::size_t p = 0; p < kNumProfiles; ++p) {
    Dispatcher& d = *s.dispatchers[p];
    for (std::size_t blk = 0; blk < kBlocksPerPass; ++blk) {
      for (const Slot& slot : s.slots) {
        modelled[p].add_call(d.modelled_costs(
            desc_of(kMix[slot.cls], slot.relaxed, d.effective_mode())));
      }
    }
  }

  // The modelled stream: the seeded blocks on every profile while the
  // tables learn from cold. Every output is checked.
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t blk = 0; blk < kBlocksPerPass; ++blk) {
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      (void)replay_block(s, *s.dispatchers[p], s.blocks[blk], nullptr);
      failed += verify_and_poison(s);
      attempted += s.slots.size();
    }
  }
  std::vector<DispatchStats> pass_stats;
  for (const auto& d : s.dispatchers) pass_stats.push_back(d->stats());
  s.dispatchers.clear();  // at most three pools exist at a time

  std::vector<std::unique_ptr<Dispatcher>> steady;
  for (const char* p : kProfiles) {
    std::size_t blocks = 0;
    steady.push_back(steady_dispatcher(s, p, blocks));
    std::printf("steady %-12s table learned from %zu fixed-order blocks\n", p,
                blocks);
  }

  // Steady windows of one fixed-order block on every profile, repeated
  // for options.seconds: the wall metrics. In a traced run the windows
  // alternate tracing off and on.
  Replays calls;  // part p * 25 + i: the i-th call of the block on profile p
  std::vector<double> traced, untraced, latencies, all_latencies;
  const std::size_t min_windows = options.trace ? 8 : 2;
  const auto steady_start = Clock::now();
  for (std::size_t w = 0;
       w < min_windows || seconds_since(steady_start) < options.seconds; ++w) {
    const bool tracing = options.trace && w % 2 == 1;
    blob::obs::set_enabled(tracing);
    double window = 0.0;
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      window += replay_block(s, *steady[p], s.steady_order,
                             tracing ? nullptr : &latencies);
      failed += verify_and_poison(s);
      attempted += s.slots.size();
    }
    blob::obs::set_enabled(false);
    if (tracing) {
      (void)blob::obs::drain_events();  // keep the rings from filling
      traced.push_back(window);
    } else {
      untraced.push_back(window);
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        calls.add(i, latencies[i]);
      }
      all_latencies.insert(all_latencies.end(), latencies.begin(),
                           latencies.end());
      latencies.clear();
    }
  }
  // The steady routes per window: the same for every seed.
  const auto per_window = [&](std::uint64_t n) {
    return static_cast<double>(n) /
           static_cast<double>(traced.size() + untraced.size());
  };
  for (std::size_t p = 0; p < kNumProfiles; ++p) {
    const DispatchStats st = steady[p]->stats();
    std::printf("steady %-12s per window: %g gpu, %g emulated, %g explores, "
                "%g route switches\n",
                kProfiles[p], per_window(st.gpu_routed),
                per_window(st.emulated_routed), per_window(st.explores),
                per_window(st.route_switches));
  }
  steady.clear();
  report.attempted(attempted);
  report.failed(failed);
  report_replays(report, calls, calls);

  double routed = 0.0, oracle = 0.0, best_const = 0.0;
  for (std::size_t p = 0; p < kNumProfiles; ++p) {
    modelled[p].routed_s = pass_stats[p].cpu_seconds + pass_stats[p].gpu_seconds;
    routed += modelled[p].routed_s;
    oracle += modelled[p].oracle_s;
    best_const += modelled[p].best_const_s();
    std::printf(
        "modelled %-12s routed %.6e s  oracle %.6e s  cpu %.6e s  gpu %.6e s\n",
        kProfiles[p], modelled[p].routed_s, modelled[p].oracle_s,
        modelled[p].always_cpu_s, modelled[p].always_gpu_s);
  }
  report.set("vs_oracle", routed / oracle);
  report.set("vs_best_const", routed / best_const);

  if (options.trace) {
    for (std::size_t p = 0; p < kNumProfiles; ++p) {
      report.set(std::string("dispatch.") + kProfiles[p] + ".vs_oracle",
                 modelled[p].routed_s / modelled[p].oracle_s);
    }
    report_dispatch_counts(report, pass_stats);
    report.set("dispatch.call_p99_ms", quantile(all_latencies, 0.99) * 1e3);
    report.set("obs.trace_overhead_frac",
               median(traced) / median(untraced) - 1.0);
    std::vector<OpDesc> descs;
    for (const MixClass& mc : kMix) {
      descs.push_back(desc_of(mc, false, blob::core::TransferMode::Once));
      if (mc.relaxed_per_block > 0) {
        descs.push_back(desc_of(mc, true, blob::core::TransferMode::Once));
      }
    }
    state.reset();  // free the operands before the layer measurements
    measure_simgpu(report, options.seed);
    measure_blas(report, descs, kPoolThreads);
    measure_small_calls(report);
    measure_parallel_region(report, kPoolThreads);
    measure_model_and_plan(report, config_for("dawn"), descs);
    measure_seam(report, config_for("dawn"));
    measure_router(report, descs);
    const std::string solver = "offload-mix runs no factorization";
    report.unavailable("lapack.ref_s", solver);
    report.unavailable("lapack.seam_ops", solver);
    for (const char* f : {"getrf", "potrf", "geqrf"}) {
      for (const char* p : kProfiles) {
        report.unavailable(std::string("lapack.") + f + "." + p +
                               ".vs_best_const",
                           solver);
      }
    }
    const std::string fleet = "offload-mix drives no DeviceFleet";
    report.unavailable("serve.submit_us", fleet);
    report.unavailable("serve.lat_p99_ms", fleet);
    report.unavailable("serve.device_skew", fleet);
    report.unavailable("serve.modelled_vs_oracle", fleet);
  }
  return report.emit(options.trace);
}

}  // namespace perfbench
