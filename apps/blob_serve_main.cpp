// blob-serve: replay a mixed BLAS traffic trace through the online
// offload dispatcher and report routed-vs-oracle regret.
//
// The driver generates a deterministic stream of GEMM/GEMV calls drawn
// from a weighted mix of shape classes (small CPU-favoured GEMMs, shapes
// near the offload crossover, large GPU-favoured GEMMs, memory-bound
// GEMVs), installs the dispatcher behind the cblas entry points (or, with
// --queue, drives the admission queue from several client threads), and
// compares the dispatcher's cumulative modelled latency against three
// baselines computed from the same noise-free cost models:
//   * oracle      — per-call cheaper backend (the offline threshold
//                   applied with perfect knowledge, paper §III-D),
//   * always-cpu  — never offload,
//   * always-gpu  — always offload.
// A converged dispatcher should land within a few percent of the oracle
// and strictly beat both constant policies on a mixed workload.
//
// --save-calib / --load-calib round-trip the decision table so a second
// run starts warm (cold_starts == 0, explores == 0 in the stats).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <chrono>
#include <string_view>

#include "blas/cblas.hpp"
#include "blas/gemm.hpp"
#include "core/validate.hpp"
#include "dispatch/admission_queue.hpp"
#include "dispatch/dispatcher.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "lapack/potrf.hpp"
#include "obs/obs.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "sysprofile/profile.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace {

using blob::blas::Transpose;
using blob::dispatch::Dispatcher;

struct ShapeClass {
  const char* label;
  blob::core::KernelOp op;
  blob::model::Precision precision;
  Transpose ta, tb;
  int m, n, k;
  double weight;
};

constexpr Transpose kN = Transpose::No;
constexpr Transpose kT = Transpose::Yes;

// The default mix spans both sides of every profile's offload threshold:
// tiny GEMMs no link crossing can amortise, mid sizes near the crossover,
// large squares the GPU wins outright, bandwidth-bound GEMVs — plus
// transposed and half-precision rows, which ride the same OpDesc path
// end-to-end (no Forced fallbacks for a transpose).
const ShapeClass kClasses[] = {
    {"gemm-small-f32", blob::core::KernelOp::Gemm,
     blob::model::Precision::F32, kN, kN, 48, 48, 48, 0.24},
    {"gemm-mid-f32", blob::core::KernelOp::Gemm, blob::model::Precision::F32,
     kN, kN, 256, 256, 256, 0.12},
    {"gemm-mid-f32-tn", blob::core::KernelOp::Gemm,
     blob::model::Precision::F32, kT, kN, 256, 256, 256, 0.08},
    {"gemm-large-f32", blob::core::KernelOp::Gemm,
     blob::model::Precision::F32, kN, kN, 768, 768, 768, 0.12},
    {"gemm-large-f32-nt", blob::core::KernelOp::Gemm,
     blob::model::Precision::F32, kN, kT, 640, 640, 640, 0.06},
    {"gemm-mid-f64", blob::core::KernelOp::Gemm, blob::model::Precision::F64,
     kN, kN, 320, 320, 320, 0.08},
    {"gemm-large-f64", blob::core::KernelOp::Gemm,
     blob::model::Precision::F64, kN, kN, 640, 640, 640, 0.08},
    {"gemm-mid-f16", blob::core::KernelOp::Gemm, blob::model::Precision::F16,
     kN, kN, 384, 384, 384, 0.07},
    {"gemv-mid-f32", blob::core::KernelOp::Gemv, blob::model::Precision::F32,
     kN, kN, 768, 768, 1, 0.07},
    {"gemv-mid-f32-t", blob::core::KernelOp::Gemv,
     blob::model::Precision::F32, kT, kN, 768, 768, 1, 0.04},
    {"gemv-large-f64", blob::core::KernelOp::Gemv,
     blob::model::Precision::F64, kN, kN, 1536, 1536, 1, 0.04},
};

/// Pre-generated operand buffers for one shape class (reused across
/// calls, like a server reusing request arenas).
struct ClassBuffers {
  std::vector<float> af, bf, cf;
  std::vector<double> ad, bd, cd;
  std::vector<blob::blas::f16> ah, bh, ch;
};

void fill_deterministic(std::vector<float>& v, std::uint64_t salt) {
  blob::util::Xoshiro256 rng(0xf111 + salt);
  for (auto& x : v) x = static_cast<float>(rng.next_double() - 0.5);
}

void fill_deterministic(std::vector<double>& v, std::uint64_t salt) {
  blob::util::Xoshiro256 rng(0xf111 + salt);
  for (auto& x : v) x = rng.next_double() - 0.5;
}

void fill_deterministic(std::vector<blob::blas::f16>& v,
                        std::uint64_t salt) {
  blob::util::Xoshiro256 rng(0xf111 + salt);
  for (auto& x : v) {
    x = blob::blas::f16(static_cast<float>(rng.next_double() - 0.5));
  }
}

CBLAS_TRANSPOSE to_cblas(Transpose t) {
  return t == Transpose::Yes ? CblasTrans : CblasNoTrans;
}

blob::blas::CpuLibraryPersonality personality_by_name(
    const std::string& name) {
  if (name == "generic") return blob::blas::generic_personality();
  if (name == "nvpl") return blob::blas::nvpl_like_personality();
  if (name == "armpl") return blob::blas::armpl_like_personality();
  if (name == "aocl") return blob::blas::aocl_like_personality();
  if (name == "openblas") return blob::blas::openblas_like_personality();
  if (name == "single") return blob::blas::single_thread_personality();
  throw std::invalid_argument("unknown personality: " + name);
}

blob::core::TransferMode mode_by_name(const std::string& name) {
  if (name == "once") return blob::core::TransferMode::Once;
  if (name == "always") return blob::core::TransferMode::Always;
  if (name == "usm") return blob::core::TransferMode::Usm;
  throw std::invalid_argument("unknown transfer mode: " + name);
}

blob::core::ErrorBudget budget_by_name(const std::string& name) {
  if (name == "exact") return blob::core::ErrorBudget::exact();
  if (name == "relaxed") return blob::core::ErrorBudget::relaxed();
  if (name.rfind("ulp:", 0) == 0) {
    const unsigned long ulps = std::stoul(name.substr(4));
    return blob::core::ErrorBudget::ulp_bounded(
        static_cast<std::uint32_t>(ulps));
  }
  throw std::invalid_argument("unknown error budget: " + name +
                              " (want exact, relaxed or ulp:N)");
}

blob::dispatch::ResidencyPolicy residency_by_name(const std::string& name) {
  if (name == "off") return blob::dispatch::ResidencyPolicy::Off;
  if (name == "track") return blob::dispatch::ResidencyPolicy::Track;
  if (name == "first-touch") {
    return blob::dispatch::ResidencyPolicy::FirstTouch;
  }
  throw std::invalid_argument("unknown residency policy: " + name);
}

struct Baselines {
  double oracle_s = 0.0;
  double always_cpu_s = 0.0;
  double always_gpu_s = 0.0;
};

constexpr std::size_t kNumClasses = std::size(kClasses);

/// Element counts for one class's operands (see the arena comments).
struct ClassExtents {
  std::size_t a = 0, b = 0, c = 0;
};

ClassExtents extents_of(const ShapeClass& sc) {
  ClassExtents e;
  e.a = static_cast<std::size_t>(sc.m) *
        (sc.op == blob::core::KernelOp::Gemm ? static_cast<std::size_t>(sc.k)
                                             : static_cast<std::size_t>(sc.n));
  e.b = sc.op == blob::core::KernelOp::Gemm
            ? static_cast<std::size_t>(sc.k) * static_cast<std::size_t>(sc.n)
            : static_cast<std::size_t>(sc.ta == kN ? sc.n : sc.m);
  e.c = sc.op == blob::core::KernelOp::Gemm
            ? static_cast<std::size_t>(sc.m) * static_cast<std::size_t>(sc.n)
            : static_cast<std::size_t>(sc.ta == kN ? sc.m : sc.n);
  return e;
}

/// Deterministically filled operand arenas for every shape class.
std::vector<ClassBuffers> make_arenas() {
  std::vector<ClassBuffers> buffers(kNumClasses);
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
    const ShapeClass& sc = kClasses[ci];
    // Element counts are invariant under transposition (a k x m stored A
    // holds as many values as an m x k one); GEMV vector lengths swap.
    const ClassExtents e = extents_of(sc);
    if (sc.precision == blob::model::Precision::F16) {
      buffers[ci].ah.resize(e.a);
      buffers[ci].bh.resize(e.b);
      buffers[ci].ch.resize(e.c);
      fill_deterministic(buffers[ci].ah, ci * 3 + 0);
      fill_deterministic(buffers[ci].bh, ci * 3 + 1);
      fill_deterministic(buffers[ci].ch, ci * 3 + 2);
    } else if (sc.precision == blob::model::Precision::F32) {
      buffers[ci].af.resize(e.a);
      buffers[ci].bf.resize(e.b);
      buffers[ci].cf.resize(e.c);
      fill_deterministic(buffers[ci].af, ci * 3 + 0);
      fill_deterministic(buffers[ci].bf, ci * 3 + 1);
      fill_deterministic(buffers[ci].cf, ci * 3 + 2);
    } else {
      buffers[ci].ad.resize(e.a);
      buffers[ci].bd.resize(e.b);
      buffers[ci].cd.resize(e.c);
      fill_deterministic(buffers[ci].ad, ci * 3 + 0);
      fill_deterministic(buffers[ci].bd, ci * 3 + 1);
      fill_deterministic(buffers[ci].cd, ci * 3 + 2);
    }
  }
  return buffers;
}

/// Issue one call of class `sc` on `buf` through the cblas entry points
/// (routes through the dispatcher when its hook is installed, natively
/// otherwise — the native form computes checksum references).
void issue_class(const ShapeClass& sc, ClassBuffers& buf) {
  if (sc.op == blob::core::KernelOp::Gemm) {
    const int lda = sc.ta == kN ? sc.m : sc.k;
    const int ldb = sc.tb == kN ? sc.k : sc.n;
    if (sc.precision == blob::model::Precision::F16) {
      cblas_hgemm(CblasColMajor, to_cblas(sc.ta), to_cblas(sc.tb), sc.m,
                  sc.n, sc.k, 1.0F, buf.ah.data(), lda, buf.bh.data(), ldb,
                  0.0F, buf.ch.data(), sc.m);
    } else if (sc.precision == blob::model::Precision::F32) {
      cblas_sgemm(CblasColMajor, to_cblas(sc.ta), to_cblas(sc.tb), sc.m,
                  sc.n, sc.k, 1.0F, buf.af.data(), lda, buf.bf.data(), ldb,
                  0.0F, buf.cf.data(), sc.m);
    } else {
      cblas_dgemm(CblasColMajor, to_cblas(sc.ta), to_cblas(sc.tb), sc.m,
                  sc.n, sc.k, 1.0, buf.ad.data(), lda, buf.bd.data(), ldb,
                  0.0, buf.cd.data(), sc.m);
    }
  } else {
    if (sc.precision == blob::model::Precision::F32) {
      cblas_sgemv(CblasColMajor, to_cblas(sc.ta), sc.m, sc.n, 1.0F,
                  buf.af.data(), sc.m, buf.bf.data(), 1, 0.0F, buf.cf.data(),
                  1);
    } else {
      cblas_dgemv(CblasColMajor, to_cblas(sc.ta), sc.m, sc.n, 1.0,
                  buf.ad.data(), sc.m, buf.bd.data(), 1, 0.0, buf.cd.data(),
                  1);
    }
  }
}

/// Output (C or y) footprint in bytes.
std::size_t c_bytes(const ShapeClass& sc) {
  const std::size_t elems = extents_of(sc).c;
  if (sc.precision == blob::model::Precision::F16) {
    return elems * sizeof(blob::blas::f16);
  }
  if (sc.precision == blob::model::Precision::F32) {
    return elems * sizeof(float);
  }
  return elems * sizeof(double);
}

const void* c_ptr(const ClassBuffers& buf, const ShapeClass& sc) {
  if (sc.precision == blob::model::Precision::F16) return buf.ch.data();
  if (sc.precision == blob::model::Precision::F32) return buf.cf.data();
  return buf.cd.data();
}

/// The one output-verification helper every mode funnels through (replay,
/// fleet drain, factorize, solver). Compares under `spec` — bitwise for
/// the exact contract, tolerance-aware when the run declared an error
/// budget — and on failure reports the first differing index and the
/// worst ULP distance instead of a bare "memcmp failed".
template <typename T>
bool verify_buffers(const char* what, const T* ref, const T* got,
                    std::size_t len, const blob::core::CompareSpec& spec) {
  const blob::core::CompareResult r =
      blob::core::compare_buffers(ref, got, len, spec);
  if (!r.passed) {
    std::cerr << "verify(" << what << "): " << r.detail << "\n";
  }
  return r.passed;
}

/// Typed verification of one class's raw output pointer against the
/// reference arenas. f16 outputs always verify bitwise (no route relaxes
/// half precision); f32/f64 follow `spec`.
bool verify_class_output(const void* got, const ClassBuffers& ref,
                         const ShapeClass& sc,
                         const blob::core::CompareSpec& spec) {
  const std::size_t elems = extents_of(sc).c;
  if (sc.precision == blob::model::Precision::F16) {
    if (std::memcmp(got, ref.ch.data(), c_bytes(sc)) == 0) return true;
    std::cerr << "verify(" << sc.label << "): f16 output not bit-identical\n";
    return false;
  }
  if (sc.precision == blob::model::Precision::F32) {
    return verify_buffers(sc.label, ref.cf.data(),
                          static_cast<const float*>(got), elems, spec);
  }
  return verify_buffers(sc.label, ref.cd.data(),
                        static_cast<const double*>(got), elems, spec);
}

/// Does this class's output match the reference under `spec`?
bool class_matches(const ClassBuffers& got, const ClassBuffers& ref,
                   const ShapeClass& sc,
                   const blob::core::CompareSpec& spec) {
  return verify_class_output(c_ptr(got, sc), ref, sc, spec);
}

/// Deterministic weighted class sequence over `allowed` class indices.
std::vector<std::size_t> sample_sequence(
    std::size_t calls, std::uint64_t seed,
    const std::vector<std::size_t>& allowed) {
  blob::util::Xoshiro256 rng(seed);
  double weight_sum = 0.0;
  for (const std::size_t ci : allowed) weight_sum += kClasses[ci].weight;
  std::vector<std::size_t> sequence(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    double draw = rng.next_double() * weight_sum;
    std::size_t pick = allowed.front();
    for (const std::size_t ci : allowed) {
      draw -= kClasses[ci].weight;
      if (draw <= 0.0) {
        pick = ci;
        break;
      }
    }
    sequence[i] = pick;
  }
  return sequence;
}

// -- fleet mode --------------------------------------------------------------

/// Service class per shape class: tiny filler GEMMs ride best-effort
/// (never shed), shapes near the crossover serve interactive traffic
/// (tight SLO), large GPU-bound shapes are batch/pipeline traffic
/// (loose SLO).
blob::serve::RequestClass request_class_of(const ShapeClass& sc) {
  const std::string_view label(sc.label);
  if (label.find("small") != std::string_view::npos) {
    return blob::serve::RequestClass::BestEffort;
  }
  if (label.find("large") != std::string_view::npos) {
    return blob::serve::RequestClass::Batch;
  }
  return blob::serve::RequestClass::Interactive;
}

constexpr blob::serve::RequestClass kRequestClasses[] = {
    blob::serve::RequestClass::Interactive,
    blob::serve::RequestClass::Batch,
    blob::serve::RequestClass::BestEffort,
};

/// Two trace records are bitwise-equal on every routed-decision field
/// (span ids are excluded: they depend on live tracing state).
bool records_equal(const blob::dispatch::TraceRecord& a,
                   const blob::dispatch::TraceRecord& b) {
  return a.seq == b.seq && a.device == b.device && a.op == b.op &&
         a.precision == b.precision && a.mode == b.mode &&
         a.bucket == b.bucket && a.trans_a == b.trans_a &&
         a.trans_b == b.trans_b && a.m == b.m && a.n == b.n && a.k == b.k &&
         a.route == b.route && a.reason == b.reason &&
         a.cpu_est_s == b.cpu_est_s && a.gpu_est_s == b.gpu_est_s &&
         a.emu_est_s == b.emu_est_s && a.budget == b.budget &&
         a.slices == b.slices &&
         a.cost_s == b.cost_s && a.observed_s == b.observed_s &&
         a.batch == b.batch && a.residency == b.residency &&
         a.h2d_moved_bytes == b.h2d_moved_bytes &&
         a.h2d_skipped_bytes == b.h2d_skipped_bytes;
}

int run_fleet(const blob::util::ArgParser& args,
              blob::dispatch::DispatcherConfig base) {
  using blob::serve::RequestClass;

  const auto calls = static_cast<std::size_t>(args.get_int("-n"));
  const int devices = args.get_int("--devices");
  const bool verify_single = args.get_flag("--verify-single");
  double slo_ms = args.get_double("--slo-ms");
  double slo_batch_ms = args.get_double("--slo-batch-ms");
  if (slo_batch_ms < 0.0) slo_batch_ms = slo_ms * 10.0;
  auto clients = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("--clients"), 1));
  const auto burst = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("--burst"), 1));
  const auto gap_us = std::max<std::int64_t>(args.get_int("--gap-us"), 0);

  if (verify_single) {
    if (devices != 1) {
      std::cerr << "error: --verify-single requires --devices 1\n";
      return 2;
    }
    // Bit-identity needs a deterministic admission order and zero
    // shedding; force both rather than silently comparing noise.
    clients = 1;
    slo_ms = 0.0;
    slo_batch_ms = 0.0;
  }

  // Device personalities: --device-systems cycles over the fleet (so
  // "dawn,lumi --devices 4" builds dawn,lumi,dawn,lumi); default is a
  // homogeneous fleet of --system.
  std::vector<blob::profile::SystemProfile> profiles;
  {
    std::vector<std::string> names;
    const std::string spec = args.get_string("--device-systems");
    std::size_t start = 0;
    while (start <= spec.size() && !spec.empty()) {
      const std::size_t comma = spec.find(',', start);
      const std::size_t end = comma == std::string::npos ? spec.size() : comma;
      if (end > start) names.push_back(spec.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (names.empty()) names.push_back(args.get_string("--system"));
    try {
      for (int i = 0; i < devices; ++i) {
        profiles.push_back(
            blob::profile::by_name(names[static_cast<std::size_t>(i) %
                                         names.size()]));
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // The fleet serves the f32/f64 mix (half precisions stay on the
  // single-device replay path — see serve::ServeRequest).
  std::vector<std::size_t> mix;
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
    if (kClasses[ci].precision != blob::model::Precision::F16) {
      mix.push_back(ci);
    }
  }

  std::vector<ClassBuffers> buffers = make_arenas();
  // Per-class checksum references through the native CPU path (no hook
  // is installed in fleet mode, so plain cblas is the ground truth; the
  // simulated GPU kernels are bitwise-identical to the CPU path, so one
  // reference validates every route on every device).
  std::vector<ClassBuffers> refs = buffers;
  for (const std::size_t ci : mix) issue_class(kClasses[ci], refs[ci]);

  const std::vector<std::size_t> sequence = sample_sequence(
      calls, static_cast<std::uint64_t>(args.get_int("--seed")), mix);

  blob::serve::FleetConfig fc;
  fc.devices = profiles;
  fc.base = base;
  fc.base.trace_capacity = calls == 0 ? 1 : calls;
  fc.slo.interactive_ms = slo_ms;
  fc.slo.batch_ms = slo_batch_ms;
  fc.queue_capacity = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("--queue-capacity"), 0));
  fc.tenant = args.get_string("--tenant");
  fc.calibration_prefix = args.get_string("--calib-prefix");
  blob::serve::DeviceFleet fleet(fc);

  std::cout << blob::util::strfmt(
      "fleet: %d devices, %zu calls, %zu clients x burst %zu (gap %lld us, "
      "slo %.1f/%.1f ms)\n",
      devices, calls, clients, burst, static_cast<long long>(gap_us),
      slo_ms, slo_batch_ms);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    std::cout << blob::util::strfmt("  device %zu: %s\n", i,
                                    profiles[i].name.c_str());
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> completed_seen{0};

  // Closed-loop bursty producers. Each client owns a ring of `burst`
  // output slots per class, so every in-flight request of a class writes
  // a distinct buffer even when two land on different devices; the
  // burst barrier (wait before reuse) makes the ring bound exact. In
  // --verify-single mode the single client writes the shared arenas
  // directly (one device drains FIFO, so nothing ever overlaps) — this
  // keeps operand addresses identical to the plain-dispatcher replay,
  // which matters under an active residency policy.
  struct Pending {
    std::future<blob::serve::ServeResult> fut;
    std::size_t ci = 0;
    const void* out = nullptr;
  };
  auto producer = [&](std::size_t t) {
    std::vector<std::vector<std::vector<float>>> slots_f(kNumClasses);
    std::vector<std::vector<std::vector<double>>> slots_d(kNumClasses);
    std::vector<std::size_t> ring(kNumClasses, 0);
    if (!verify_single) {
      for (const std::size_t ci : mix) {
        const ShapeClass& sc = kClasses[ci];
        if (sc.precision == blob::model::Precision::F32) {
          slots_f[ci].assign(burst, buffers[ci].cf);
        } else {
          slots_d[ci].assign(burst, buffers[ci].cd);
        }
      }
    }
    std::vector<Pending> pending;
    pending.reserve(burst);
    auto drain = [&] {
      // Resolve every future of the burst before checking any output: in
      // --verify-single mode in-flight requests of one class share a
      // single arena, so comparing request i while request j > i of the
      // same class still executes would race the worker's writes.
      std::vector<blob::serve::ServeResult> results;
      results.reserve(pending.size());
      for (Pending& p : pending) results.push_back(p.fut.get());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (results[i].outcome != blob::serve::Outcome::Completed) continue;
        completed_seen.fetch_add(1, std::memory_order_relaxed);
        const Pending& p = pending[i];
        const ShapeClass& sc = kClasses[p.ci];
        if (!verify_class_output(p.out, refs[p.ci], sc,
                                 blob::core::CompareSpec::bitwise())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      pending.clear();
    };
    for (std::size_t i = t; i < calls; i += clients) {
      const std::size_t ci = sequence[i];
      const ShapeClass& sc = kClasses[ci];
      const RequestClass cls = request_class_of(sc);
      Pending p;
      p.ci = ci;
      if (sc.op == blob::core::KernelOp::Gemm) {
        const int lda = sc.ta == kN ? sc.m : sc.k;
        const int ldb = sc.tb == kN ? sc.k : sc.n;
        if (sc.precision == blob::model::Precision::F32) {
          float* out = verify_single
                           ? buffers[ci].cf.data()
                           : slots_f[ci][ring[ci]++ % burst].data();
          p.out = out;
          p.fut = fleet.submit_gemm<float>(
              cls, sc.ta, sc.tb, sc.m, sc.n, sc.k, 1.0F,
              buffers[ci].af.data(), lda, buffers[ci].bf.data(), ldb, 0.0F,
              out, sc.m);
        } else {
          double* out = verify_single
                            ? buffers[ci].cd.data()
                            : slots_d[ci][ring[ci]++ % burst].data();
          p.out = out;
          p.fut = fleet.submit_gemm<double>(
              cls, sc.ta, sc.tb, sc.m, sc.n, sc.k, 1.0,
              buffers[ci].ad.data(), lda, buffers[ci].bd.data(), ldb, 0.0,
              out, sc.m);
        }
      } else {
        if (sc.precision == blob::model::Precision::F32) {
          float* out = verify_single
                           ? buffers[ci].cf.data()
                           : slots_f[ci][ring[ci]++ % burst].data();
          p.out = out;
          p.fut = fleet.submit_gemv<float>(
              cls, sc.ta, sc.m, sc.n, 1.0F, buffers[ci].af.data(), sc.m,
              buffers[ci].bf.data(), 1, 0.0F, out, 1);
        } else {
          double* out = verify_single
                            ? buffers[ci].cd.data()
                            : slots_d[ci][ring[ci]++ % burst].data();
          p.out = out;
          p.fut = fleet.submit_gemv<double>(
              cls, sc.ta, sc.m, sc.n, 1.0, buffers[ci].ad.data(), sc.m,
              buffers[ci].bd.data(), 1, 0.0, out, 1);
        }
      }
      pending.push_back(std::move(p));
      if (pending.size() >= burst) {
        drain();
        if (gap_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
        }
      }
    }
    drain();
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back(producer, t);
    }
    for (auto& th : threads) th.join();
  }
  fleet.flush();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // -- N=1 bit-identity: replay the same sequence through a lone
  // Dispatcher (same config, same buffers) and demand the decision
  // traces match bitwise.
  bool verify_identical = true;
  std::size_t verify_diverged_at = 0;
  if (verify_single) {
    const std::vector<blob::dispatch::TraceRecord> fleet_trace =
        fleet.device(0).trace().snapshot();
    blob::dispatch::DispatcherConfig plain_cfg = base;
    plain_cfg.trace_capacity = calls == 0 ? 1 : calls;
    blob::dispatch::Dispatcher plain(plain_cfg);
    plain.install();
    for (std::size_t i = 0; i < calls; ++i) {
      issue_class(kClasses[sequence[i]], buffers[sequence[i]]);
    }
    plain.uninstall();
    const std::vector<blob::dispatch::TraceRecord> plain_trace =
        plain.trace().snapshot();
    if (fleet_trace.size() != plain_trace.size()) {
      verify_identical = false;
    } else {
      for (std::size_t i = 0; i < fleet_trace.size(); ++i) {
        if (!records_equal(fleet_trace[i], plain_trace[i])) {
          verify_identical = false;
          verify_diverged_at = i;
          break;
        }
      }
    }
    // The plain replay rewrote the shared arenas; they must still match
    // the references (both runs compute the same bits).
    for (const std::size_t ci : mix) {
      bool appeared = false;
      for (const std::size_t s : sequence) appeared |= s == ci;
      if (appeared && !class_matches(buffers[ci], refs[ci], kClasses[ci],
                                     blob::core::CompareSpec::bitwise())) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const blob::serve::FleetStats stats = fleet.stats();
  const double speedup =
      stats.makespan_s > 0.0 ? stats.busy_s / stats.makespan_s : 0.0;
  const double regret =
      stats.oracle_s > 0.0 ? stats.busy_s / stats.oracle_s - 1.0 : 0.0;

  std::cout << blob::util::strfmt(
      "\n  submitted %llu  completed %llu  shed %llu  checksum mismatches "
      "%llu (expect 0)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(mismatches.load()));
  for (const RequestClass cls : kRequestClasses) {
    const blob::obs::Histogram& hist = blob::serve::latency_histogram(cls);
    if (hist.count() == 0 && blob::serve::shed_counter(cls).value() == 0) {
      continue;
    }
    std::cout << blob::util::strfmt(
        "  class %-12s n=%-6llu p50 %8.3f ms  p99 %8.3f ms  shed %llu\n",
        blob::serve::to_string(cls),
        static_cast<unsigned long long>(hist.count()),
        blob::serve::histogram_quantile(hist, 0.50) / 1.0e6,
        blob::serve::histogram_quantile(hist, 0.99) / 1.0e6,
        static_cast<unsigned long long>(
            blob::serve::shed_counter(cls).value()));
  }
  std::cout << blob::util::strfmt(
      "  modelled: busy %.4es  makespan %.4es  speedup %.2fx  oracle %.4es "
      "(regret %+.2f%%)\n",
      stats.busy_s, stats.makespan_s, speedup, stats.oracle_s,
      100.0 * regret);
  std::cout << blob::util::strfmt(
      "  wall %.3fs  throughput %.0f req/s\n", wall_s,
      wall_s > 0.0 ? static_cast<double>(stats.completed) / wall_s : 0.0);
  for (std::size_t i = 0; i < stats.devices.size(); ++i) {
    const blob::serve::DeviceStats& ds = stats.devices[i];
    std::cout << blob::util::strfmt(
        "  device %zu (%s): completed %llu  shed %llu  busy %.4es  "
        "(cpu %llu, gpu %llu routed)\n",
        i, ds.profile.c_str(),
        static_cast<unsigned long long>(ds.completed),
        static_cast<unsigned long long>(ds.shed), ds.busy_s,
        static_cast<unsigned long long>(ds.dispatch.cpu_routed),
        static_cast<unsigned long long>(ds.dispatch.gpu_routed));
  }
  if (verify_single) {
    std::cout << blob::util::strfmt(
        "  verify-single: %s\n",
        verify_identical ? "fleet trace bit-identical to lone dispatcher"
                         : "TRACE DIVERGED");
    if (!verify_identical) {
      std::cerr << blob::util::strfmt(
          "error: fleet(1) diverged from the single-device dispatcher at "
          "record %zu\n",
          verify_diverged_at);
    }
  }

  if (!fc.calibration_prefix.empty() && !fleet.save_calibration()) {
    std::cerr << "error: cannot write calibration stores\n";
    return 1;
  }
  const std::string metrics_path = args.get_string("--metrics-out");
  if (!metrics_path.empty() &&
      !blob::obs::write_metrics_file(metrics_path)) {
    std::cerr << "error: cannot write " << metrics_path << "\n";
    return 1;
  }
  const std::string trace_path = args.get_string("--trace-out");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      return 1;
    }
    // One array per device, in device order.
    out << "[";
    for (std::size_t i = 0; i < fleet.device_count(); ++i) {
      if (i > 0) out << ",";
      fleet.device(i).trace().dump_json(out);
    }
    out << "]\n";
  }

  const std::string json_path = args.get_string("--json-out");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    blob::util::JsonWriter json(out, /*pretty=*/true);
    json.begin_object();
    json.kv("devices", devices);
    json.key("systems").begin_array();
    for (const auto& p : profiles) json.value(p.name);
    json.end_array();
    json.kv("personality", base.personality.name);
    json.kv("residency", args.get_string("--residency"));
    json.kv("tenant", fc.tenant);
    json.kv("calls", calls);
    json.kv("clients", clients);
    json.kv("burst", burst);
    json.kv("gap_us", gap_us);
    json.kv("slo_ms", slo_ms);
    json.kv("slo_batch_ms", slo_batch_ms);
    json.kv("submitted", static_cast<std::int64_t>(stats.submitted));
    json.kv("completed", static_cast<std::int64_t>(stats.completed));
    json.kv("shed", static_cast<std::int64_t>(stats.shed));
    json.kv("checksum_mismatches",
            static_cast<std::int64_t>(mismatches.load()));
    json.kv("wall_s", wall_s);
    json.kv("busy_s", stats.busy_s);
    json.kv("makespan_s", stats.makespan_s);
    json.kv("speedup", speedup);
    json.kv("oracle_s", stats.oracle_s);
    json.kv("routed_est_s", stats.routed_est_s);
    json.kv("regret_vs_oracle", regret);
    if (verify_single) json.kv("verify_single_identical", verify_identical);
    json.key("classes").begin_array();
    for (const RequestClass cls : kRequestClasses) {
      const blob::obs::Histogram& hist =
          blob::serve::latency_histogram(cls);
      json.begin_object();
      json.kv("class", blob::serve::to_string(cls));
      json.kv("completed", static_cast<std::int64_t>(hist.count()));
      json.kv("shed", static_cast<std::int64_t>(
                          blob::serve::shed_counter(cls).value()));
      json.kv("p50_ms", blob::serve::histogram_quantile(hist, 0.50) / 1.0e6);
      json.kv("p99_ms", blob::serve::histogram_quantile(hist, 0.99) / 1.0e6);
      json.end_object();
    }
    json.end_array();
    json.key("per_device").begin_array();
    for (std::size_t i = 0; i < stats.devices.size(); ++i) {
      const blob::serve::DeviceStats& ds = stats.devices[i];
      json.begin_object();
      json.kv("device", static_cast<std::int64_t>(i));
      json.kv("system", ds.profile);
      json.kv("completed", static_cast<std::int64_t>(ds.completed));
      json.kv("shed", static_cast<std::int64_t>(ds.shed));
      json.kv("busy_s", ds.busy_s);
      json.key("stats").begin_object();
      blob::dispatch::write_stats_fields(json, ds.dispatch);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << "\n";
    std::cout << "summary written to " << json_path << "\n";
  }

  const bool failed = mismatches.load() != 0 || !verify_identical;
  return failed ? 1 : 0;
}

// --factorize: run one blocked factorization twice — once hook-free (the
// exact direct blas:: path) and once with the dispatcher installed behind
// the seam — and require the dispatched factor, pivots, and tau scalars
// to be bitwise identical to the reference. The decision trace then shows
// the offload decisions the dispatcher took panel by panel, next to what
// constant always-CPU / always-GPU policies would have cost on the same
// op stream.
int run_factorize(blob::util::ArgParser& args,
                  const blob::dispatch::DispatcherConfig& config,
                  Dispatcher& dispatcher) {
  const std::string which = args.get_string("--factorize");
  if (which != "getrf" && which != "potrf" && which != "geqrf") {
    std::cerr << "error: --factorize must be getrf, potrf or geqrf\n";
    return 2;
  }
  const int dim = args.get_int("--factor-dim");
  const int block = args.get_int("--factor-block");
  if (dim <= 0 || block <= 0) {
    std::cerr << "error: --factor-dim and --factor-block must be positive\n";
    return 2;
  }
  const auto nn = static_cast<std::size_t>(dim);

  std::vector<double> a0(nn * nn);
  fill_deterministic(a0, 0xfac);
  if (which == "potrf") {
    // SPD prep: A = G G^T + dim * I, lower triangle factored.
    const std::vector<double> g = a0;
    blob::blas::gemm(Transpose::No, Transpose::Yes, dim, dim, dim, 1.0,
                     g.data(), dim, g.data(), dim, 0.0, a0.data(), dim);
    for (std::size_t i = 0; i < nn; ++i) {
      a0[i + i * nn] += static_cast<double>(dim);
    }
  }

  std::vector<int> ipiv_ref, ipiv_disp;
  std::vector<double> tau_ref, tau_disp;
  auto run = [&](std::vector<double>& a, std::vector<int>& ipiv,
                 std::vector<double>& tau) {
    if (which == "getrf") {
      blob::lapack::getrf(dim, a.data(), dim, ipiv, nullptr, 1, block);
    } else if (which == "potrf") {
      blob::lapack::potrf(blob::blas::UpLo::Lower, dim, a.data(), dim,
                          nullptr, 1, block);
    } else {
      blob::lapack::geqrf(dim, dim, a.data(), dim, tau, nullptr, 1, block);
    }
  };

  std::vector<double> a_ref = a0;
  run(a_ref, ipiv_ref, tau_ref);

  std::vector<double> a_disp = a0;
  dispatcher.install();
  run(a_disp, ipiv_disp, tau_disp);
  dispatcher.uninstall();

  // Factorizations carry the exact contract (pivot choices would change
  // under perturbation), so the spec is always bitwise here.
  std::size_t mismatches = 0;
  if (!verify_buffers("factor", a_ref.data(), a_disp.data(), nn * nn,
                      blob::core::CompareSpec::bitwise())) {
    ++mismatches;
  }
  if (ipiv_ref != ipiv_disp) ++mismatches;
  if (tau_ref.size() != tau_disp.size() ||
      (!tau_ref.empty() &&
       !verify_buffers("tau", tau_ref.data(), tau_disp.data(),
                       tau_ref.size(),
                       blob::core::CompareSpec::bitwise()))) {
    ++mismatches;
  }

  // Constant-policy baselines on exactly the op stream the factorization
  // generated: rebuild each record's descriptor and price both backends
  // with the same noise-free models the router consulted.
  const std::vector<blob::dispatch::TraceRecord> records =
      dispatcher.trace().snapshot();
  std::vector<Dispatcher::Costs> rec_costs(records.size());
  double always_cpu_s = 0.0;
  double always_gpu_s = 0.0;
  std::int64_t first_gpu = 0;  // 1-based; 0 = never offloaded
  std::int64_t gemm_ops = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const blob::dispatch::TraceRecord& r = records[i];
    const blob::core::OpDesc desc =
        r.op == blob::core::KernelOp::Gemm
            ? blob::core::OpDesc::gemm(r.precision, r.trans_a, r.trans_b,
                                       r.m, r.n, r.k, 0, 0, 0,
                                       /*alpha_one=*/true,
                                       /*beta_zero=*/true, config.mode)
            : blob::core::OpDesc::gemv(r.precision, r.trans_a, r.m, r.n, 0,
                                       1, 1, /*alpha_one=*/true,
                                       /*beta_zero=*/true, config.mode);
    rec_costs[i] = dispatcher.modelled_costs(desc);
    always_cpu_s += rec_costs[i].cpu_s;
    always_gpu_s += rec_costs[i].gpu_s;
    if (r.op == blob::core::KernelOp::Gemm) ++gemm_ops;
    if (first_gpu == 0 && r.route == blob::dispatch::Route::Gpu) {
      first_gpu = static_cast<std::int64_t>(i) + 1;
    }
  }

  const blob::dispatch::DispatchStats stats = dispatcher.stats();
  const double routed_s = stats.cpu_seconds + stats.gpu_seconds;
  std::cout << blob::util::strfmt(
      "\nfactorize: %s dim %d block %d on %s (residency %s)\n",
      which.c_str(), dim, block, config.profile.name.c_str(),
      args.get_string("--residency").c_str());
  std::cout << blob::util::strfmt(
      "  seam ops: %zu (%lld gemm, %lld gemv); first gpu op %lld%s\n",
      records.size(), static_cast<long long>(gemm_ops),
      static_cast<long long>(static_cast<std::int64_t>(records.size()) -
                             gemm_ops),
      static_cast<long long>(first_gpu), first_gpu == 0 ? " (never)" : "");
  std::cout << blob::util::strfmt("  checksum mismatches:  %zu\n",
                                  mismatches);
  std::cout << blob::util::strfmt(
      "  h2d bytes: %.3e moved, %.3e skipped (%llu hits, %llu misses, "
      "%llu invalidations, %llu swaps mirrored)\n",
      stats.h2d_bytes_moved, stats.h2d_bytes_skipped,
      static_cast<unsigned long long>(stats.residency_hits),
      static_cast<unsigned long long>(stats.residency_misses),
      static_cast<unsigned long long>(stats.residency_invalidations),
      static_cast<unsigned long long>(stats.residency_swaps_mirrored));
  std::cout << blob::util::strfmt(
      "  routed %.4es   always-cpu %.4es   always-gpu(cold) %.4es\n",
      routed_s, always_cpu_s, always_gpu_s);

  const std::string trace_path = args.get_string("--trace-out");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      return 1;
    }
    dispatcher.trace().dump_json(out);
  }
  const std::string metrics_path = args.get_string("--metrics-out");
  if (!metrics_path.empty() &&
      !blob::obs::write_metrics_file(metrics_path)) {
    std::cerr << "error: cannot write " << metrics_path << "\n";
    return 1;
  }
  const std::string calib_path = args.get_string("--save-calib");
  if (!calib_path.empty() && !dispatcher.save_calibration(calib_path)) {
    std::cerr << "error: cannot write " << calib_path << "\n";
    return 1;
  }

  const std::string json_path = args.get_string("--json-out");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    blob::util::JsonWriter json(out, /*pretty=*/true);
    json.begin_object();
    json.kv("system", config.profile.name);
    json.kv("personality", config.personality.name);
    json.kv("mode", args.get_string("--mode"));
    json.kv("residency", args.get_string("--residency"));
    json.key("factorize").begin_object();
    json.kv("name", which);
    json.kv("dim", dim);
    json.kv("block", block);
    json.kv("ops", static_cast<std::int64_t>(records.size()));
    json.kv("gemm_ops", gemm_ops);
    json.kv("gemv_ops",
            static_cast<std::int64_t>(records.size()) - gemm_ops);
    json.kv("first_gpu_op", first_gpu);
    json.kv("checksum_mismatches", static_cast<std::int64_t>(mismatches));
    json.kv("always_cpu_s", always_cpu_s);
    json.kv("always_gpu_s", always_gpu_s);
    json.kv("routed_s", routed_s);
    // Per-op curve: the routed cumulative cost next to what the constant
    // policies accrue over the same shrinking trailing-update shapes.
    double cum = 0.0, cum_cpu = 0.0, cum_gpu = 0.0;
    json.key("ops_trace").begin_array();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const blob::dispatch::TraceRecord& r = records[i];
      cum += r.cost_s;
      cum_cpu += rec_costs[i].cpu_s;
      cum_gpu += rec_costs[i].gpu_s;
      json.begin_object();
      json.kv("op_index", static_cast<std::int64_t>(i) + 1);
      json.kv("op", blob::core::to_string(r.op));
      json.kv("m", r.m).kv("n", r.n).kv("k", r.k);
      json.kv("route", blob::dispatch::to_string(r.route));
      json.kv("residency", blob::dispatch::to_string(r.residency));
      json.kv("cost_s", r.cost_s);
      json.kv("cum_routed_s", cum);
      json.kv("cum_always_cpu_s", cum_cpu);
      json.kv("cum_always_gpu_s", cum_gpu);
      json.kv("h2d_moved_bytes", r.h2d_moved_bytes);
      json.kv("h2d_skipped_bytes", r.h2d_skipped_bytes);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    json.key("stats").begin_object();
    blob::dispatch::write_stats_fields(json, stats);
    json.end_object();
    json.end_object();
    out << "\n";
    std::cout << "summary written to " << json_path << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // BLOB_TRACE=<path> turns on span tracing and flushes a chrome trace at
  // exit; BLOB_METRICS=<path> flushes the metrics dump (see docs/
  // observability.md). --metrics-out below does the same programmatically.
  blob::obs::init_from_env();

  blob::util::ArgParser args("blob-serve");
  args.add_string("--system", "system profile (dawn, lumi, isambard-ai, ...)",
                  "dawn");
  args.add_string("--personality",
                  "CPU library personality "
                  "(generic|nvpl|armpl|aocl|openblas|single)",
                  "generic");
  args.add_string("--mode", "transfer mode (once|always|usm)", "once");
  args.add_string("--residency",
                  "residency policy (off|track|first-touch); active "
                  "policies derive the transfer mode per call",
                  "off");
  args.add_int("--residency-horizon",
               "iterations a cold upload is amortised over", 12);
  args.add_flag("--solver",
                "iterative-solver mode: repeated-A f64 power iteration "
                "(-n = iterations) instead of the mixed replay");
  args.add_int("--solver-dim", "solver matrix dimension", 1536);
  args.add_string("--factorize",
                  "factorization mode: run this blocked solver "
                  "(getrf|potrf|geqrf) with its trailing-update traffic "
                  "routed through the dispatch seam",
                  "");
  args.add_int("--factor-dim", "factorization matrix dimension", 768);
  args.add_int("--factor-block", "factorization panel width", 64);
  args.add_int("-n", "number of calls to replay", 400);
  args.add_int("--warmup", "calls regarded as warm-up (default n/4)", -1);
  args.add_int("--threads", "CPU worker-pool cap (0 = hardware)", 0);
  args.add_int("--seed", "workload RNG seed", 42);
  args.add_double("--noise", "observation noise sigma (<0 = profile's)",
                  -1.0);
  args.add_flag("--queue", "drive the admission queue from client threads");
  args.add_int("--clients", "client threads in --queue/--devices mode", 4);
  args.add_int("--devices",
               "fleet mode: serve through this many simulated devices "
               "(0 = legacy single-device modes)",
               0);
  args.add_string("--device-systems",
                  "comma-separated system profiles cycled over the fleet "
                  "(default: --system, homogeneous)",
                  "");
  args.add_double("--slo-ms",
                  "interactive-class deadline in ms (0 = never shed)", 0.0);
  args.add_double("--slo-batch-ms",
                  "batch-class deadline in ms (<0 = 10 x --slo-ms)", -1.0);
  args.add_int("--burst", "requests per client burst in fleet mode", 16);
  args.add_int("--gap-us", "pause between client bursts (offered load)", 0);
  args.add_int("--queue-capacity",
               "per-device admission bound (backpressure; 0 = unbounded)",
               1024);
  args.add_string("--tenant", "calibration namespace for the fleet", "");
  args.add_string("--calib-prefix",
                  "per-device calibration stores "
                  "(<prefix>[.<tenant>].dev<i>.json)",
                  "");
  args.add_flag("--verify-single",
                "with --devices 1: replay through a lone dispatcher and "
                "require bit-identical decision traces");
  args.add_string("--error-budget",
                  "accuracy contract stamped on every replayed call "
                  "(exact|relaxed|ulp:N). Non-exact budgets make f64 GEMMs "
                  "eligible for the emulated fp32-slice GPU arm and switch "
                  "output verification to the tolerance the budget implies",
                  "exact");
  args.add_flag("--autotune", "autotune GEMM blocking at startup");
  args.add_string("--load-calib", "calibration store to load", "");
  args.add_string("--save-calib", "write calibration store on exit", "");
  args.add_string("--json-out", "write the summary JSON here", "");
  args.add_string("--trace-out", "dump the decision trace JSON here", "");
  args.add_string("--metrics-out", "write the obs metrics dump JSON here",
                  "");

  std::vector<std::string> positional;
  try {
    positional = args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.usage();
    return 0;
  }

  const auto calls = static_cast<std::size_t>(args.get_int("-n"));
  std::size_t warmup = args.get_int("--warmup") >= 0
                           ? static_cast<std::size_t>(args.get_int("--warmup"))
                           : calls / 4;
  if (warmup > calls) warmup = calls;

  blob::dispatch::DispatcherConfig config;
  blob::core::ErrorBudget budget;
  try {
    config.profile = blob::profile::by_name(args.get_string("--system"));
    config.personality = personality_by_name(args.get_string("--personality"));
    config.mode = mode_by_name(args.get_string("--mode"));
    config.residency = residency_by_name(args.get_string("--residency"));
    budget = budget_by_name(args.get_string("--error-budget"));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  // Budgets apply to the replay modes only: fleet mode verifies
  // bitwise against --verify-single, and factorizations/solvers require
  // exact results (pivoting diverges under perturbation).
  if (!budget.is_exact() &&
      (args.get_int("--devices") > 0 || args.get_flag("--solver") ||
       !args.get_string("--factorize").empty())) {
    std::cerr << "error: --error-budget requires the replay modes\n";
    return 2;
  }
  const blob::core::CompareSpec verify_spec =
      blob::core::spec_for_budget(budget);
  config.residency_horizon = args.get_int("--residency-horizon");
  config.cpu_threads = static_cast<std::size_t>(args.get_int("--threads"));
  config.noise_sigma = args.get_double("--noise");
  config.autotune = args.get_flag("--autotune");
  config.calibration_path = args.get_string("--load-calib");
  config.trace_capacity = calls == 0 ? 1 : calls;
  if (!args.get_string("--factorize").empty()) {
    // A factorization emits its own op stream (panel GEMVs + trailing
    // GEMMs), not -n replay calls; keep the whole decision trace.
    config.trace_capacity = 8192;
  }

  if (args.get_int("--devices") > 0) {
    // Fleet serving is a different driver entirely (multi-producer
    // bursty traffic over N devices); the per-device profile overrides
    // config.profile inside.
    try {
      return run_fleet(args, config);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  Dispatcher dispatcher(config);
  if (!config.calibration_path.empty()) {
    std::cout << "calibration load: "
              << blob::dispatch::to_string(dispatcher.startup_load_status())
              << "\n";
  }

  if (!args.get_string("--factorize").empty()) {
    try {
      return run_factorize(args, config, dispatcher);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  if (args.get_flag("--solver")) {
    // Iterative-solver traffic: power iteration y = A x, x = y / |y|_inf
    // with one matrix reused across every iteration — the pattern
    // residency tracking exists for. A reference pass through the native
    // CPU path runs first; the sim GPU kernels preserve summation order,
    // so the dispatcher run must reproduce each iterate bitwise.
    const int dim = args.get_int("--solver-dim");
    const std::size_t iters = calls == 0 ? 1 : calls;
    const auto nn = static_cast<std::size_t>(dim);
    std::vector<double> a(nn * nn), x0(nn);
    fill_deterministic(a, 0xa0);
    fill_deterministic(x0, 0xb0);

    auto step = [&](std::vector<double>& x, std::vector<double>& y) {
      cblas_dgemv(CblasColMajor, CblasNoTrans, dim, dim, 1.0, a.data(), dim,
                  x.data(), 1, 0.0, y.data(), 1);
      double norm = 0.0;
      for (const double v : y) norm = std::max(norm, std::abs(v));
      if (norm == 0.0) norm = 1.0;
      for (std::size_t i = 0; i < nn; ++i) x[i] = y[i] / norm;
    };

    std::vector<std::vector<double>> ref(iters);
    {
      std::vector<double> x = x0, y(nn, 0.0);
      for (std::size_t it = 0; it < iters; ++it) {
        step(x, y);
        ref[it] = y;
      }
    }

    dispatcher.install();
    std::size_t mismatches = 0;
    {
      std::vector<double> x = x0, y(nn, 0.0);
      for (std::size_t it = 0; it < iters; ++it) {
        step(x, y);
        if (!verify_buffers("solver-iterate", ref[it].data(), y.data(), nn,
                            blob::core::CompareSpec::bitwise())) {
          ++mismatches;
        }
      }
    }
    dispatcher.uninstall();

    // Constant-policy baselines from the same noise-free models: the
    // cold GPU cost is what a Transfer-Always run pays every iteration.
    const blob::core::OpDesc desc = blob::core::OpDesc::gemv(
        blob::model::Precision::F64, Transpose::No, dim, dim, 0, 1, 1,
        /*alpha_one=*/true, /*beta_zero=*/true, config.mode);
    const Dispatcher::Costs costs = dispatcher.modelled_costs(desc);

    const std::vector<blob::dispatch::TraceRecord> records =
        dispatcher.trace().snapshot();
    std::int64_t first_gpu = 0;  // 1-based; 0 = never offloaded
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].route == blob::dispatch::Route::Gpu) {
        first_gpu = static_cast<std::int64_t>(i) + 1;
        break;
      }
    }

    const blob::dispatch::DispatchStats stats = dispatcher.stats();
    std::cout << blob::util::strfmt(
        "\nsolver: dim %d, %zu iterations on %s (residency %s)\n", dim,
        iters, config.profile.name.c_str(),
        args.get_string("--residency").c_str());
    std::cout << blob::util::strfmt(
        "  first gpu iteration:  %lld%s\n",
        static_cast<long long>(first_gpu), first_gpu == 0 ? " (never)" : "");
    std::cout << blob::util::strfmt("  checksum mismatches:  %zu\n",
                                    mismatches);
    std::cout << blob::util::strfmt(
        "  h2d bytes: %.3e moved, %.3e skipped (%llu hits, %llu misses, "
        "%llu invalidations)\n",
        stats.h2d_bytes_moved, stats.h2d_bytes_skipped,
        static_cast<unsigned long long>(stats.residency_hits),
        static_cast<unsigned long long>(stats.residency_misses),
        static_cast<unsigned long long>(stats.residency_invalidations));
    std::cout << blob::util::strfmt(
        "  routed %.4es   always-cpu %.4es   always-gpu(cold) %.4es\n",
        stats.cpu_seconds + stats.gpu_seconds,
        costs.cpu_s * static_cast<double>(iters),
        costs.gpu_s * static_cast<double>(iters));

    const std::string solver_trace = args.get_string("--trace-out");
    if (!solver_trace.empty()) {
      std::ofstream out(solver_trace);
      if (!out) {
        std::cerr << "error: cannot write " << solver_trace << "\n";
        return 1;
      }
      dispatcher.trace().dump_json(out);
    }
    const std::string solver_metrics = args.get_string("--metrics-out");
    if (!solver_metrics.empty() &&
        !blob::obs::write_metrics_file(solver_metrics)) {
      std::cerr << "error: cannot write " << solver_metrics << "\n";
      return 1;
    }
    const std::string solver_calib = args.get_string("--save-calib");
    if (!solver_calib.empty() &&
        !dispatcher.save_calibration(solver_calib)) {
      std::cerr << "error: cannot write " << solver_calib << "\n";
      return 1;
    }

    const std::string solver_json = args.get_string("--json-out");
    if (!solver_json.empty()) {
      std::ofstream out(solver_json);
      if (!out) {
        std::cerr << "error: cannot write " << solver_json << "\n";
        return 1;
      }
      blob::util::JsonWriter json(out, /*pretty=*/true);
      json.begin_object();
      json.kv("system", config.profile.name);
      json.kv("personality", config.personality.name);
      json.kv("mode", args.get_string("--mode"));
      json.kv("residency", args.get_string("--residency"));
      json.key("solver").begin_object();
      json.kv("dim", dim);
      json.kv("iterations", iters);
      json.kv("first_gpu_iteration", first_gpu);
      json.kv("checksum_mismatches",
              static_cast<std::int64_t>(mismatches));
      json.kv("cpu_cost_per_iter_s", costs.cpu_s);
      json.kv("gpu_cold_cost_per_iter_s", costs.gpu_s);
      json.kv("routed_s", stats.cpu_seconds + stats.gpu_seconds);
      // Per-iteration curve: cumulative routed cost next to the constant
      // policies, plus what each call moved vs skipped over the link.
      double cum = 0.0;
      json.key("iterations_trace").begin_array();
      for (std::size_t i = 0; i < records.size(); ++i) {
        const blob::dispatch::TraceRecord& r = records[i];
        cum += r.cost_s;
        json.begin_object();
        json.kv("iter", static_cast<std::int64_t>(i) + 1);
        json.kv("route", blob::dispatch::to_string(r.route));
        json.kv("residency", blob::dispatch::to_string(r.residency));
        json.kv("cost_s", r.cost_s);
        json.kv("cum_routed_s", cum);
        json.kv("cum_always_cpu_s", costs.cpu_s * static_cast<double>(i + 1));
        json.kv("cum_always_gpu_s", costs.gpu_s * static_cast<double>(i + 1));
        json.kv("h2d_moved_bytes", r.h2d_moved_bytes);
        json.kv("h2d_skipped_bytes", r.h2d_skipped_bytes);
        json.end_object();
      }
      json.end_array();
      json.end_object();
      json.key("stats").begin_object();
      blob::dispatch::write_stats_fields(json, stats);
      json.end_object();
      json.end_object();
      out << "\n";
      std::cout << "summary written to " << solver_json << "\n";
    }
    return mismatches == 0 ? 0 : 1;
  }

  // Operand arenas per shape class, plus native-path checksum references
  // (computed before the dispatcher hook is installed, so plain cblas is
  // the ground truth every later route must reproduce bitwise).
  std::vector<ClassBuffers> buffers = make_arenas();
  std::vector<ClassBuffers> refs = buffers;
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
    issue_class(kClasses[ci], refs[ci]);
  }

  // Per-class modelled costs drive the oracle / constant baselines.
  Baselines total, steady;
  std::vector<Dispatcher::Costs> class_costs(kNumClasses);
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
    const ShapeClass& sc = kClasses[ci];
    blob::core::OpDesc desc =
        sc.op == blob::core::KernelOp::Gemm
            ? blob::core::OpDesc::gemm(sc.precision, sc.ta, sc.tb, sc.m,
                                       sc.n, sc.k, 0, 0, 0,
                                       /*alpha_one=*/true, /*beta_zero=*/true,
                                       config.mode)
            : blob::core::OpDesc::gemv(sc.precision, sc.ta, sc.m, sc.n, 0, 1,
                                       1, /*alpha_one=*/true,
                                       /*beta_zero=*/true, config.mode);
    desc.budget = budget;
    class_costs[ci] = dispatcher.modelled_costs(desc);
    const Dispatcher::Costs& cc = class_costs[ci];
    const char* best_arm =
        (cc.emu_s < cc.cpu_s && cc.emu_s < cc.gpu_s) ? "emu"
        : cc.gpu_s < cc.cpu_s                        ? "gpu"
                                                     : "cpu";
    if (std::isfinite(cc.emu_s)) {
      std::cout << blob::util::strfmt(
          "  class %-18s cpu %.3es  gpu %.3es  emu %.3es  oracle=%s\n",
          sc.label, cc.cpu_s, cc.gpu_s, cc.emu_s, best_arm);
    } else {
      std::cout << blob::util::strfmt(
          "  class %-18s cpu %.3es  gpu %.3es  oracle=%s\n", sc.label,
          cc.cpu_s, cc.gpu_s, best_arm);
    }
  }

  // Sample the workload sequence (deterministic in --seed).
  std::vector<std::size_t> all_classes(kNumClasses);
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) all_classes[ci] = ci;
  const std::vector<std::size_t> sequence = sample_sequence(
      calls, static_cast<std::uint64_t>(args.get_int("--seed")),
      all_classes);

  // Replay. Baselines accumulate alongside; a stats snapshot at the
  // warm-up boundary splits routed cost into warm-up and steady phases.
  dispatcher.install();
  blob::dispatch::DispatchStats warm_stats;
  const bool use_queue = args.get_flag("--queue");

  // Final-state checksum validation: every class buffer a run touched
  // must end bitwise-equal to the native-path reference (beta = 0, so
  // repeated calls are idempotent). A nonzero count fails the process.
  std::uint64_t checksum_mismatches = 0;

  if (!use_queue) {
    // The budget is a thread-local cblas contract: scope it to the replay
    // so the reference passes above stayed exact.
    const blob::blas::ScopedErrorBudget scoped(budget);
    std::vector<char> issued(kNumClasses, 0);
    for (std::size_t i = 0; i < calls; ++i) {
      if (i == warmup) warm_stats = dispatcher.stats();
      issue_class(kClasses[sequence[i]], buffers[sequence[i]]);
      issued[sequence[i]] = 1;
    }
    for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
      if (issued[ci] &&
          !class_matches(buffers[ci], refs[ci], kClasses[ci], verify_spec)) {
        ++checksum_mismatches;
      }
    }
  } else {
    // Queue mode: several client threads submit slices of the sequence.
    // Classes write into disjoint per-client output arenas so concurrent
    // same-class requests do not alias.
    blob::dispatch::AdmissionQueue queue(dispatcher);
    const auto clients =
        static_cast<std::size_t>(std::max<std::int64_t>(
            args.get_int("--clients"), 1));
    std::vector<std::vector<ClassBuffers>> client_buffers(clients, buffers);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        // Each producer declares the budget on its own thread — submit_*
        // capture it per request, so it survives the hop to the worker.
        const blob::blas::ScopedErrorBudget scoped(budget);
        std::vector<std::future<void>> pending;
        for (std::size_t i = t; i < calls; i += clients) {
          const std::size_t ci = sequence[i];
          const ShapeClass& sc = kClasses[ci];
          ClassBuffers& buf = client_buffers[t][ci];
          if (sc.op == blob::core::KernelOp::Gemm) {
            const int lda = sc.ta == kN ? sc.m : sc.k;
            const int ldb = sc.tb == kN ? sc.k : sc.n;
            if (sc.precision == blob::model::Precision::F16) {
              // The queue carries f32/f64; half traffic reaches the
              // dispatcher through the cblas seam (thread-safe hook).
              cblas_hgemm(CblasColMajor, to_cblas(sc.ta), to_cblas(sc.tb),
                          sc.m, sc.n, sc.k, 1.0F, buf.ah.data(), lda,
                          buf.bh.data(), ldb, 0.0F, buf.ch.data(), sc.m);
            } else if (sc.precision == blob::model::Precision::F32) {
              pending.push_back(queue.submit_gemm<float>(
                  sc.ta, sc.tb, sc.m, sc.n, sc.k, 1.0F, buf.af.data(), lda,
                  buf.bf.data(), ldb, 0.0F, buf.cf.data(), sc.m));
            } else {
              pending.push_back(queue.submit_gemm<double>(
                  sc.ta, sc.tb, sc.m, sc.n, sc.k, 1.0, buf.ad.data(), lda,
                  buf.bd.data(), ldb, 0.0, buf.cd.data(), sc.m));
            }
          } else {
            if (sc.precision == blob::model::Precision::F32) {
              pending.push_back(queue.submit_gemv<float>(
                  sc.ta, sc.m, sc.n, 1.0F, buf.af.data(), sc.m,
                  buf.bf.data(), 1, 0.0F, buf.cf.data(), 1));
            } else {
              pending.push_back(queue.submit_gemv<double>(
                  sc.ta, sc.m, sc.n, 1.0, buf.ad.data(), sc.m,
                  buf.bd.data(), 1, 0.0, buf.cd.data(), 1));
            }
          }
        }
        for (auto& f : pending) f.get();
      });
    }
    for (auto& t : threads) t.join();
    queue.flush();
    for (std::size_t t = 0; t < clients; ++t) {
      std::vector<char> issued(kNumClasses, 0);
      for (std::size_t i = t; i < calls; i += clients) {
        issued[sequence[i]] = 1;
      }
      for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
        if (issued[ci] && !class_matches(client_buffers[t][ci], refs[ci],
                                         kClasses[ci], verify_spec)) {
          ++checksum_mismatches;
        }
      }
    }
    warm_stats = blob::dispatch::DispatchStats{};  // no phase split here
    warmup = 0;
  }
  dispatcher.uninstall();

  for (std::size_t i = 0; i < calls; ++i) {
    const Dispatcher::Costs& costs = class_costs[sequence[i]];
    // Three-arm oracle: emu_s is +inf unless the budget admitted the
    // emulated arm, so exact-budget runs reduce to the two-arm oracle.
    const double best =
        std::min({costs.cpu_s, costs.gpu_s, costs.emu_s});
    total.oracle_s += best;
    total.always_cpu_s += costs.cpu_s;
    total.always_gpu_s += costs.gpu_s;
    if (i >= warmup) {
      steady.oracle_s += best;
      steady.always_cpu_s += costs.cpu_s;
      steady.always_gpu_s += costs.gpu_s;
    }
  }

  const blob::dispatch::DispatchStats stats = dispatcher.stats();
  const double routed_total = stats.cpu_seconds + stats.gpu_seconds;
  const double routed_steady =
      routed_total - (warm_stats.cpu_seconds + warm_stats.gpu_seconds);

  std::cout << blob::util::strfmt(
      "\nreplayed %zu calls on %s/%s (mode %s, budget %s%s)\n", calls,
      config.profile.name.c_str(), config.personality.name.c_str(),
      args.get_string("--mode").c_str(),
      args.get_string("--error-budget").c_str(),
      use_queue ? ", queued" : "");
  std::cout << blob::util::strfmt(
      "  routed      %.4es   (cpu %llu, gpu %llu, emulated %llu, "
      "batched %llu)\n",
      routed_total, static_cast<unsigned long long>(stats.cpu_routed),
      static_cast<unsigned long long>(stats.gpu_routed),
      static_cast<unsigned long long>(stats.emulated_routed),
      static_cast<unsigned long long>(stats.batched_routed));
  std::cout << blob::util::strfmt("  oracle      %.4es\n", total.oracle_s);
  std::cout << blob::util::strfmt("  always-cpu  %.4es\n",
                                  total.always_cpu_s);
  std::cout << blob::util::strfmt("  always-gpu  %.4es\n",
                                  total.always_gpu_s);
  if (total.oracle_s > 0.0) {
    std::cout << blob::util::strfmt(
        "  regret vs oracle: %+.2f%%  (steady-state: %+.2f%%)\n",
        100.0 * (routed_total / total.oracle_s - 1.0),
        steady.oracle_s > 0.0
            ? 100.0 * (routed_steady / steady.oracle_s - 1.0)
            : 0.0);
  }
  std::cout << blob::util::strfmt(
      "  decisions: %llu cold, %llu explore, %llu exploit, %llu hold, "
      "%llu forced, %llu switches\n",
      static_cast<unsigned long long>(stats.cold_starts),
      static_cast<unsigned long long>(stats.explores),
      static_cast<unsigned long long>(stats.exploits),
      static_cast<unsigned long long>(stats.hysteresis_holds),
      static_cast<unsigned long long>(stats.forced_cpu),
      static_cast<unsigned long long>(stats.route_switches));
  std::cout << blob::util::strfmt(
      "  residency: %llu hits, %llu misses, %llu invalidations "
      "(h2d %.3e moved, %.3e skipped)\n",
      static_cast<unsigned long long>(stats.residency_hits),
      static_cast<unsigned long long>(stats.residency_misses),
      static_cast<unsigned long long>(stats.residency_invalidations),
      stats.h2d_bytes_moved, stats.h2d_bytes_skipped);

  // Transposed shapes are first-class on the GPU path: none of them may
  // fall back with Reason::Forced (that reason survives only for strided
  // GEMV vectors, which this mix never issues).
  std::uint64_t transposed_calls = 0;
  std::uint64_t transposed_forced = 0;
  for (const blob::dispatch::TraceRecord& r : dispatcher.trace().snapshot()) {
    if (r.trans_a == Transpose::Yes || r.trans_b == Transpose::Yes) {
      ++transposed_calls;
      if (r.reason == blob::dispatch::Reason::Forced) ++transposed_forced;
    }
  }
  std::cout << blob::util::strfmt(
      "  transposed: %llu calls, %llu forced (expect 0)\n",
      static_cast<unsigned long long>(transposed_calls),
      static_cast<unsigned long long>(transposed_forced));
  std::cout << blob::util::strfmt(
      "  checksum mismatches: %llu (expect 0)\n",
      static_cast<unsigned long long>(checksum_mismatches));

  const std::string save_path = args.get_string("--save-calib");
  if (!save_path.empty()) {
    if (dispatcher.save_calibration(save_path)) {
      std::cout << "calibration saved to " << save_path << "\n";
    } else {
      std::cerr << "error: cannot write " << save_path << "\n";
      return 1;
    }
  }

  const std::string trace_path = args.get_string("--trace-out");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "error: cannot write " << trace_path << "\n";
      return 1;
    }
    dispatcher.trace().dump_json(out);
  }

  const std::string metrics_path = args.get_string("--metrics-out");
  if (!metrics_path.empty()) {
    if (!blob::obs::write_metrics_file(metrics_path)) {
      std::cerr << "error: cannot write " << metrics_path << "\n";
      return 1;
    }
  }

  const std::string json_path = args.get_string("--json-out");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    blob::util::JsonWriter json(out, /*pretty=*/true);
    json.begin_object();
    json.kv("system", config.profile.name);
    json.kv("personality", config.personality.name);
    json.kv("mode", args.get_string("--mode"));
    json.kv("residency", args.get_string("--residency"));
    json.kv("error_budget", args.get_string("--error-budget"));
    json.kv("verify_mode", blob::core::to_string(verify_spec.mode));
    json.kv("queued", use_queue);
    json.kv("calls", calls);
    json.kv("warmup_calls", warmup);
    json.kv("routed_s", routed_total);
    json.kv("routed_steady_s", routed_steady);
    json.kv("oracle_s", total.oracle_s);
    json.kv("oracle_steady_s", steady.oracle_s);
    json.kv("always_cpu_s", total.always_cpu_s);
    json.kv("always_gpu_s", total.always_gpu_s);
    json.kv("transposed_calls", static_cast<std::int64_t>(transposed_calls));
    json.kv("transposed_forced",
            static_cast<std::int64_t>(transposed_forced));
    json.kv("checksum_mismatches",
            static_cast<std::int64_t>(checksum_mismatches));
    if (total.oracle_s > 0.0) {
      json.kv("regret_vs_oracle", routed_total / total.oracle_s - 1.0);
    }
    if (steady.oracle_s > 0.0) {
      json.kv("steady_regret_vs_oracle",
              routed_steady / steady.oracle_s - 1.0);
    }
    json.key("stats").begin_object();
    blob::dispatch::write_stats_fields(json, stats);
    json.end_object();
    json.end_object();
    out << "\n";
    std::cout << "summary written to " << json_path << "\n";
  }
  // Checksum failures fail the process: CI smokes gate on correctness,
  // not just on the counters being printed.
  return checksum_mismatches == 0 ? 0 : 1;
}
