// The OpDesc IR end-to-end: one descriptor from the cblas seam to the
// simulated device. Unit checks on validate()/factory normalization and
// gpu_supported(), plus the randomized route-equivalence property the
// refactor is accountable to: CPU-routed, GPU-routed and coalesced
// batched execution produce BIT-IDENTICAL results on transposed and
// ld-padded operands under every residency policy (SimGpu's functional
// path runs the same serial kernel as the single-thread CPU library, so
// equality is exact, not approximate) — plus a pinned 30-call stream
// whose modelled clock, H2D bytes and decision trace must not move, and
// the recycling of staging buffers across GPU jobs.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/gemv.hpp"
#include "core/op_desc.hpp"
#include "dispatch/dispatcher.hpp"
#include "util/rng.hpp"

namespace {

using namespace blob;
using blas::Transpose;
using core::KernelOp;
using core::OpDesc;

// ------------------------------------------------- IR unit checks

TEST(OpDesc, ValidateNormalizesGemvAndFillsTightLds) {
  OpDesc d;
  d.op = KernelOp::Gemv;
  d.m = 40;
  d.n = 24;
  d.k = 7;                        // wrong by construction
  d.trans_b = Transpose::Yes;     // meaningless for GEMV
  d.batch = 1;
  d.validate();
  EXPECT_EQ(d.k, 1);              // GEMV k-convention normalized
  EXPECT_EQ(d.trans_b, Transpose::No);
  EXPECT_EQ(d.lda, 40);           // stored A is m x n
  EXPECT_EQ(d.x_len(), 24);
  EXPECT_EQ(d.y_len(), 40);
}

TEST(OpDesc, TransposeSwapsStoredShapes) {
  const OpDesc nn = OpDesc::gemm(model::Precision::F32, Transpose::No,
                                 Transpose::No, 8, 6, 4, 0, 0, 0, true, true);
  EXPECT_EQ(nn.rows_a(), 8);
  EXPECT_EQ(nn.cols_a(), 4);
  EXPECT_EQ(nn.rows_b(), 4);
  EXPECT_EQ(nn.cols_b(), 6);
  const OpDesc tt = OpDesc::gemm(model::Precision::F32, Transpose::Yes,
                                 Transpose::Yes, 8, 6, 4, 0, 0, 0, true,
                                 true);
  EXPECT_EQ(tt.rows_a(), 4);   // stored A is k x m
  EXPECT_EQ(tt.cols_a(), 8);
  EXPECT_EQ(tt.rows_b(), 6);   // stored B is n x k
  EXPECT_EQ(tt.cols_b(), 4);
  EXPECT_EQ(tt.lda, 4);
  EXPECT_EQ(tt.ldb, 6);
  EXPECT_EQ(tt.ldc, 8);
  EXPECT_TRUE(tt.transposed());
  EXPECT_FALSE(nn.transposed());
}

TEST(OpDesc, ValidateRejectsBadShapes) {
  OpDesc d;
  d.m = -1;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  OpDesc b = OpDesc::gemm(model::Precision::F64, Transpose::No,
                          Transpose::No, 4, 4, 4, 0, 0, 0, true, true);
  b.batch = 0;
  EXPECT_THROW(b.validate(), std::invalid_argument);
}

TEST(OpDesc, LowerRaiseRoundTripsProblemShape) {
  core::Problem p;
  p.op = KernelOp::Gemm;
  p.precision = model::Precision::F64;
  p.dims = {33, 17, 9};
  p.beta_zero = false;
  p.batch = 5;
  const OpDesc d = core::lower(p, core::TransferMode::Always);
  EXPECT_EQ(d.batch, 5);
  EXPECT_EQ(d.stride_a, 33 * 9);
  EXPECT_EQ(d.mode, core::TransferMode::Always);
  const core::Problem back = core::raise(d);
  EXPECT_EQ(back.op, p.op);
  EXPECT_EQ(back.precision, p.precision);
  EXPECT_EQ(back.dims.m, p.dims.m);
  EXPECT_EQ(back.dims.n, p.dims.n);
  EXPECT_EQ(back.dims.k, p.dims.k);
  EXPECT_EQ(back.beta_zero, p.beta_zero);
  EXPECT_EQ(back.batch, p.batch);
}

TEST(OpDesc, GpuSupportAdmitsTransposesRejectsStridedGemvVectors) {
  // Transposed GEMMs are first-class on the device; Reason::Forced
  // survives only for GEMV vector strides the kernels cannot take.
  const OpDesc tt = OpDesc::gemm(model::Precision::F32, Transpose::Yes,
                                 Transpose::Yes, 64, 64, 64, 0, 0, 0, true,
                                 true);
  EXPECT_TRUE(dispatch::Dispatcher::gpu_supported(tt));
  const OpDesc tv = OpDesc::gemv(model::Precision::F64, Transpose::Yes, 64,
                                 64, 0, 1, 1, true, true);
  EXPECT_TRUE(dispatch::Dispatcher::gpu_supported(tv));
  const OpDesc sv = OpDesc::gemv(model::Precision::F64, Transpose::No, 64,
                                 64, 0, 2, 1, true, true);
  EXPECT_FALSE(dispatch::Dispatcher::gpu_supported(sv));
}

// -------------------------------------- route bit-identity property

dispatch::DispatcherConfig identity_config(
    dispatch::ResidencyPolicy policy = dispatch::ResidencyPolicy::Off) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  // Single-thread personality with the default blocking: the CPU route
  // then runs the exact serial kernel SimGpu's functional path runs.
  cfg.personality = blas::single_thread_personality();
  cfg.cpu_threads = 1;
  cfg.autotune = false;  // a tuned blocking would change the CPU tiling
  // Track stages through explicit DMA with residency hits; FirstTouch
  // stages through managed buffers. Both must leave the numerics alone.
  cfg.residency = policy;
  return cfg;
}

constexpr dispatch::ResidencyPolicy kPolicies[] = {
    dispatch::ResidencyPolicy::Off, dispatch::ResidencyPolicy::Track,
    dispatch::ResidencyPolicy::FirstTouch};

template <typename T>
std::vector<T> random_matrix(std::int64_t ld, std::int64_t cols,
                             util::Xoshiro256& rng) {
  std::vector<T> v(static_cast<std::size_t>(ld * cols));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

template <typename T>
void expect_bitwise_eq(const std::vector<T>& got, const std::vector<T>& want,
                       int trial) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
      << "routes disagree bitwise, trial " << trial;
}

template <typename T>
void gemm_route_identity_trial(dispatch::Dispatcher& disp,
                               util::Xoshiro256& rng, int trial) {
  const auto m = rng.uniform_int(1, 48);
  const auto n = rng.uniform_int(1, 48);
  const auto k = rng.uniform_int(1, 48);
  const Transpose ta =
      rng.next_double() < 0.5 ? Transpose::No : Transpose::Yes;
  const Transpose tb =
      rng.next_double() < 0.5 ? Transpose::No : Transpose::Yes;
  const T alpha = rng.next_double() < 0.5 ? T(1) : T(-0.5);
  const T beta = rng.next_double() < 0.5 ? T(0) : T(0.75);

  constexpr auto p = sizeof(T) == 4 ? model::Precision::F32
                                    : model::Precision::F64;
  OpDesc desc = OpDesc::gemm(p, ta, tb, m, n, k, 0, 0, 0, alpha == T(1),
                             beta == T(0));
  // Pad the leading dimensions: the property covers strided storage, and
  // the GPU route's pack/unpack must leave the padding rows untouched.
  desc.lda += rng.uniform_int(0, 5);
  desc.ldb += rng.uniform_int(0, 5);
  desc.ldc += rng.uniform_int(0, 5);

  const auto a = random_matrix<T>(desc.lda, desc.cols_a(), rng);
  const auto b = random_matrix<T>(desc.ldb, desc.cols_b(), rng);
  const auto c0 = random_matrix<T>(desc.ldc, n, rng);

  const dispatch::Decision d = disp.plan(desc, true);

  std::vector<T> c_cpu = c0;
  disp.run_gemm_cpu<T>(d, desc, alpha, a.data(), b.data(), beta,
                       c_cpu.data());

  std::vector<T> c_gpu = c0;
  auto job = disp.enqueue_gemm_gpu<T>(d, desc, alpha, a.data(), b.data(),
                                      beta, c_gpu.data());
  disp.finish_gpu_job(job);

  expect_bitwise_eq(c_gpu, c_cpu, trial);
  // Padding rows of C (beyond m) must be exactly the initial contents.
  for (std::int64_t col = 0; col < n; ++col) {
    for (std::int64_t row = m; row < desc.ldc; ++row) {
      const auto i = static_cast<std::size_t>(col * desc.ldc + row);
      ASSERT_EQ(c_gpu[i], c0[i]) << "GPU route clobbered padding, trial "
                                 << trial;
    }
  }

  // Coalesced batched route: a small batch of this same shape, every
  // member bit-identical to the per-call CPU result.
  constexpr int kBatch = 3;
  std::vector<std::vector<T>> cs(kBatch, c0);
  std::vector<dispatch::Call> calls;
  for (auto& c : cs) {
    calls.push_back({desc, alpha, beta, a.data(), b.data(), c.data()});
  }
  std::vector<const dispatch::Call*> members;
  for (const auto& call : calls) members.push_back(&call);
  disp.run_coalesced(members);
  for (const auto& c : cs) expect_bitwise_eq(c, c_cpu, trial);
}

TEST(OpDescRouteIdentity, GemmCpuGpuAndCoalescedAgreeBitwise) {
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(dispatch::to_string(policy));
    dispatch::Dispatcher disp(identity_config(policy));
    util::Xoshiro256 rng(0x0bde5c);
    for (int trial = 0; trial < 40; ++trial) {
      gemm_route_identity_trial<float>(disp, rng, trial);
      gemm_route_identity_trial<double>(disp, rng, trial);
    }
  }
}

template <typename T>
void gemv_route_identity_trial(dispatch::Dispatcher& disp,
                               util::Xoshiro256& rng, int trial) {
  const auto m = rng.uniform_int(1, 96);
  const auto n = rng.uniform_int(1, 96);
  const Transpose ta =
      rng.next_double() < 0.5 ? Transpose::No : Transpose::Yes;
  const T alpha = rng.next_double() < 0.5 ? T(1) : T(2);
  const T beta = rng.next_double() < 0.5 ? T(0) : T(-1);

  constexpr auto p = sizeof(T) == 4 ? model::Precision::F32
                                    : model::Precision::F64;
  OpDesc desc = OpDesc::gemv(p, ta, m, n, 0, 1, 1, alpha == T(1),
                             beta == T(0));
  desc.lda += rng.uniform_int(0, 7);

  const auto a = random_matrix<T>(desc.lda, n, rng);
  const auto x = random_matrix<T>(desc.x_len(), 1, rng);
  const auto y0 = random_matrix<T>(desc.y_len(), 1, rng);

  const dispatch::Decision d = disp.plan(desc, true);

  std::vector<T> y_cpu = y0;
  disp.run_gemv_cpu<T>(d, desc, alpha, a.data(), x.data(), beta,
                       y_cpu.data());

  std::vector<T> y_gpu = y0;
  auto job = disp.enqueue_gemv_gpu<T>(d, desc, alpha, a.data(), x.data(),
                                      beta, y_gpu.data());
  disp.finish_gpu_job(job);

  expect_bitwise_eq(y_gpu, y_cpu, trial);
}

TEST(OpDescRouteIdentity, GemvCpuAndGpuAgreeBitwise) {
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(dispatch::to_string(policy));
    dispatch::Dispatcher disp(identity_config(policy));
    util::Xoshiro256 rng(0x9e37);
    for (int trial = 0; trial < 40; ++trial) {
      gemv_route_identity_trial<float>(disp, rng, trial);
      gemv_route_identity_trial<double>(disp, rng, trial);
    }
  }
}

// ------------------------------------------- Forced stays narrow

TEST(OpDescRouteIdentity, ForcedOnlyForStridedGemvVectors) {
  dispatch::Dispatcher disp(identity_config());
  util::Xoshiro256 rng(0xfced);

  // A burst of transposed GEMM/GEMV traffic through the full dispatch
  // path: nothing may fall back to Reason::Forced.
  for (int i = 0; i < 24; ++i) {
    const auto s = rng.uniform_int(8, 64);
    const OpDesc g =
        OpDesc::gemm(model::Precision::F32, Transpose::Yes, Transpose::No, s,
                     s, s, 0, 0, 0, true, true, disp.config().mode);
    std::vector<float> a(static_cast<std::size_t>(s * s), 0.5F);
    std::vector<float> b(a), c(a);
    disp.run_gemm<float>(g, 1.0F, a.data(), b.data(), 0.0F, c.data());

    const OpDesc v =
        OpDesc::gemv(model::Precision::F64, Transpose::Yes, s, s, 0, 1, 1,
                     true, true, disp.config().mode);
    std::vector<double> av(static_cast<std::size_t>(s * s), 0.25);
    std::vector<double> xv(static_cast<std::size_t>(s), 1.0), yv(xv);
    disp.run_gemv<double>(v, 1.0, av.data(), xv.data(), 0.0, yv.data());
  }
  for (const auto& rec : disp.trace().snapshot()) {
    EXPECT_NE(rec.reason, dispatch::Reason::Forced);
  }

  // A non-unit x stride is the one layout the device kernels cannot
  // take: it must route CPU with Reason::Forced, and the trace must
  // carry the transpose flag that got it there.
  OpDesc sv = OpDesc::gemv(model::Precision::F64, Transpose::Yes, 32, 32, 0,
                           2, 1, true, true, disp.config().mode);
  std::vector<double> a(32 * 32, 0.5);
  std::vector<double> x(2 * 32, 1.0), y(32, 0.0);
  disp.run_gemv<double>(sv, 1.0, a.data(), x.data(), 0.0, y.data());
  const auto recs = disp.trace().snapshot();
  ASSERT_FALSE(recs.empty());
  const auto& last = recs.back();
  EXPECT_EQ(last.reason, dispatch::Reason::Forced);
  EXPECT_EQ(last.route, dispatch::Route::Cpu);
  EXPECT_EQ(last.trans_a, Transpose::Yes);
}

// ------------------------------------------- pinned residency stream

// A fixed 30-call stream — f32/f64 GEMMs (one transposed, ld-padded,
// beta != 0), GEMVs, relaxed-budget f64 GEMMs and a GEMM that reads an
// earlier GPU output — replayed on isambard-ai under each residency
// policy. The expected virtual clock, H2D byte counters and decision
// trace were recorded from the staging code that predates the unified
// GPU pipeline: any change to the order of allocations and stream ops,
// or to what a residency hit skips, moves at least one of them.
struct PinnedOutcome {
  dispatch::ResidencyPolicy policy;
  double virtual_now;
  double h2d_moved;
  double h2d_skipped;
  std::string trace;      ///< route + residency class letter per call
  std::uint64_t digest;   ///< FNV-1a over every record's modelled fields
};

std::uint64_t fnv_mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

PinnedOutcome run_pinned_stream(dispatch::ResidencyPolicy policy) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::by_name("isambard-ai");
  cfg.cpu_threads = 1;
  cfg.residency = policy;
  dispatch::Dispatcher disp(cfg);
  const auto mode = disp.effective_mode();
  util::Xoshiro256 rng(0x51ab);

  const auto a32 = random_matrix<float>(160, 160, rng);
  const auto b32 = random_matrix<float>(160, 160, rng);
  std::vector<float> c32(160 * 160);
  const auto a64t = random_matrix<double>(67, 96, rng);  // stored k x m
  const auto b64 = random_matrix<double>(64, 80, rng);
  auto c64 = random_matrix<double>(98, 80, rng);
  const auto av = random_matrix<double>(768, 768, rng);
  const auto xv = random_matrix<double>(768, 1, rng);
  std::vector<double> yv(768);
  const auto at32 = random_matrix<float>(304, 200, rng);
  const auto xt32 = random_matrix<float>(300, 1, rng);
  auto yt32 = random_matrix<float>(200, 1, rng);
  const auto ae = random_matrix<double>(224, 224, rng);
  const auto be = random_matrix<double>(224, 224, rng);
  std::vector<double> ce(224 * 224);
  std::vector<double> cr(224 * 224);

  for (int i = 0; i < 30; ++i) {
    switch (i % 6) {
      case 0:
        disp.run_gemm<float>(
            OpDesc::gemm(model::Precision::F32, Transpose::No, Transpose::No,
                         160, 160, 160, 160, 160, 160, true, true, mode),
            1.0F, a32.data(), b32.data(), 0.0F, c32.data());
        break;
      case 1:
        disp.run_gemm<double>(
            OpDesc::gemm(model::Precision::F64, Transpose::Yes,
                         Transpose::No, 96, 80, 64, 67, 64, 98, true, false,
                         mode),
            1.0, a64t.data(), b64.data(), 0.5, c64.data());
        break;
      case 2:
        disp.run_gemv<double>(
            OpDesc::gemv(model::Precision::F64, Transpose::No, 768, 768, 768,
                         1, 1, true, true, mode),
            1.0, av.data(), xv.data(), 0.0, yv.data());
        break;
      case 3:
        disp.run_gemv<float>(
            OpDesc::gemv(model::Precision::F32, Transpose::Yes, 300, 200,
                         304, 1, 1, false, false, mode),
            2.0F, at32.data(), xt32.data(), 1.0F, yt32.data());
        break;
      case 4: {
        OpDesc d = OpDesc::gemm(model::Precision::F64, Transpose::No,
                                Transpose::No, 224, 224, 224, 224, 224, 224,
                                true, true, mode);
        d.budget = core::ErrorBudget::relaxed();
        disp.run_gemm<double>(d, 1.0, ae.data(), be.data(), 0.0, ce.data());
        break;
      }
      case 5:
        // Reads the previous call's output as its A operand.
        disp.run_gemm<double>(
            OpDesc::gemm(model::Precision::F64, Transpose::No, Transpose::No,
                         224, 224, 224, 224, 224, 224, true, true, mode),
            1.0, ce.data(), be.data(), 0.0, cr.data());
        break;
    }
  }

  PinnedOutcome out{policy, disp.virtual_now(), 0.0, 0.0, "", 0};
  const auto stats = disp.stats();
  out.h2d_moved = stats.h2d_bytes_moved;
  out.h2d_skipped = stats.h2d_bytes_skipped;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& rec : disp.trace().snapshot()) {
    out.trace += "CGBE"[static_cast<int>(rec.route)];
    out.trace += "cpw"[static_cast<int>(rec.residency)];
    for (const double v : {rec.cpu_est_s, rec.gpu_est_s, rec.emu_est_s,
                           rec.cost_s, rec.observed_s, rec.h2d_moved_bytes,
                           rec.h2d_skipped_bytes}) {
      h = fnv_mix(h, v);
    }
  }
  out.digest = h;
  return out;
}

TEST(OpDescRouteIdentity, PinnedStreamUnderEachResidencyPolicy) {
  const PinnedOutcome expected[] = {
      {dispatch::ResidencyPolicy::Off, 0x1.591bfbd820b3ap-12,
       0x1.23b0a8p+25, 0x0p+0,
       "GcGcGcCcEcGcGcGcGcCcEcGcGcGcGcCcEcGcGcGcGcCcEcGcGcGcGcGcEcGc",
       0x5758c3837d8a1636ull},
      {dispatch::ResidencyPolicy::Track, 0x1.f80b569591a7ap-13, 0x1.9ecp+22,
       0x1.dcp+24,
       "GcGcGcCcEcGpGwGwGwCcEwGwGwGwGwCcEwGwGwGwGwCcEwGwGwGwGwCcEwGw",
       0xde697bd3646b190cull},
      {dispatch::ResidencyPolicy::FirstTouch, 0x1.cc1147c75b1b3p-13,
       0x1.864p+22, 0x1.6a4p+24,
       "GcGcGcCcEcCpCwCwGwCcEwCpCpCpGwCcEwCpCpCpGwCcEwCpCpCpGwCcEwCp",
       0xcd6c3fb1084edf42ull},
  };
  for (const PinnedOutcome& want : expected) {
    const PinnedOutcome got = run_pinned_stream(want.policy);
    SCOPED_TRACE(dispatch::to_string(want.policy));
    EXPECT_EQ(got.virtual_now, want.virtual_now);
    EXPECT_EQ(got.h2d_moved, want.h2d_moved);
    EXPECT_EQ(got.h2d_skipped, want.h2d_skipped);
    EXPECT_EQ(got.trace, want.trace);
    EXPECT_EQ(got.digest, want.digest);
  }
}

// ------------------------------------------- staging buffer recycling

// GPU-routed calls with ld-padded operands whose shapes shrink from call
// to call (GEMMs interleaved with GEMVs), so later jobs stage through the
// larger pinned and device buffers that earlier jobs handed back.
struct StagedCall {
  OpDesc desc;
  std::vector<double> a, b, c0;  ///< A, B or x, initial C or y
};

constexpr double kStageAlpha = 0.5;
constexpr double kStageBeta = -1.25;

std::vector<StagedCall> descending_stream() {
  util::Xoshiro256 rng(0x5ca1e);
  std::vector<StagedCall> calls;
  for (std::int64_t s = 96; s >= 8; s -= 11) {
    OpDesc g = OpDesc::gemm(model::Precision::F64,
                            s % 2 == 0 ? Transpose::No : Transpose::Yes,
                            Transpose::No, s, s - 3, s + 2, 0, 0, 0, false,
                            false);
    g.lda += 3;
    g.ldb += 1;
    g.ldc += 5;
    calls.push_back({g, random_matrix<double>(g.lda, g.cols_a(), rng),
                     random_matrix<double>(g.ldb, g.cols_b(), rng),
                     random_matrix<double>(g.ldc, g.n, rng)});
    OpDesc v = OpDesc::gemv(model::Precision::F64, Transpose::No, s + 4, s,
                            0, 1, 1, false, false);
    v.lda += 2;
    calls.push_back({v, random_matrix<double>(v.lda, v.n, rng),
                     random_matrix<double>(v.x_len(), 1, rng),
                     random_matrix<double>(v.y_len(), 1, rng)});
  }
  return calls;
}

/// The hook-free result: the serial kernels the device runs functionally.
std::vector<double> staged_reference(const StagedCall& call) {
  const OpDesc& d = call.desc;
  std::vector<double> c = call.c0;
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  if (d.op == KernelOp::Gemm) {
    blas::gemm_serial(d.trans_a, d.trans_b, m, n, static_cast<int>(d.k),
                      kStageAlpha, call.a.data(), static_cast<int>(d.lda),
                      call.b.data(), static_cast<int>(d.ldb), kStageBeta,
                      c.data(), static_cast<int>(d.ldc));
  } else {
    blas::gemv_serial(d.trans_a, m, n, kStageAlpha, call.a.data(),
                      static_cast<int>(d.lda), call.b.data(), 1, kStageBeta,
                      c.data(), 1);
  }
  return c;
}

/// Reset `out` to the call's initial output and enqueue the call.
dispatch::Dispatcher::GpuJob enqueue_staged(dispatch::Dispatcher& disp,
                                            const StagedCall& call,
                                            std::vector<double>& out) {
  out = call.c0;
  dispatch::Call c{call.desc, kStageAlpha, kStageBeta};
  c.a = call.a.data();
  c.b = call.b.data();
  c.c = out.data();
  return disp.enqueue_gpu(disp.plan(c), c);
}

constexpr sim::MemKind kStagingKinds[] = {sim::MemKind::HostPinned,
                                          sim::MemKind::Device};
// The policies that stage through recycled pinned and device buffers.
constexpr dispatch::ResidencyPolicy kStagingPolicies[] = {
    dispatch::ResidencyPolicy::Off, dispatch::ResidencyPolicy::Track};

TEST(StagingRecycle, DescendingPaddedStreamMatchesFreshDispatchers) {
  const std::vector<StagedCall> stream = descending_stream();
  for (const auto policy : kStagingPolicies) {
    SCOPED_TRACE(dispatch::to_string(policy));
    dispatch::Dispatcher shared(identity_config(policy));
    // Outputs outlive the stream: a freed buffer's address reused by a
    // later call would read as resident under Track.
    std::vector<std::vector<double>> outs(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      auto job = enqueue_staged(shared, stream[i], outs[i]);
      const double cost = job.done - job.submit_floor;
      const double h2d = job.h2d_moved;
      shared.finish_gpu_job(job);
      expect_bitwise_eq(outs[i], staged_reference(stream[i]),
                        static_cast<int>(i));

      // The same call as the first job of a fresh dispatcher: recycled
      // (larger, stale) buffers change neither its modelled span nor its
      // link traffic. Spans are differences of absolute stream times, so
      // the later clock origin costs a few ulps.
      dispatch::Dispatcher fresh(identity_config(policy));
      std::vector<double> fresh_out;
      auto fresh_job = enqueue_staged(fresh, stream[i], fresh_out);
      const double fresh_cost = fresh_job.done - fresh_job.submit_floor;
      EXPECT_NEAR(cost, fresh_cost, 1e-12 * cost) << "call " << i;
      EXPECT_EQ(h2d, fresh_job.h2d_moved) << "call " << i;
      fresh.finish_gpu_job(fresh_job);
    }
  }
}

TEST(StagingRecycle, SecondPassAllocatesNothing) {
  const std::vector<StagedCall> stream = descending_stream();
  for (const auto policy : kStagingPolicies) {
    SCOPED_TRACE(dispatch::to_string(policy));
    dispatch::Dispatcher disp(identity_config(policy));
    std::vector<std::vector<double>> outs(stream.size());
    const auto pass = [&] {
      for (std::size_t i = 0; i < stream.size(); ++i) {
        auto job = enqueue_staged(disp, stream[i], outs[i]);
        disp.finish_gpu_job(job);
        // Under Track the second pass finds every operand resident-clean
        // (outputs too: enqueue_staged resets them behind the tracker's
        // back), so stale recycled device buffers are refreshed from the
        // host without a DMA.
        expect_bitwise_eq(outs[i], staged_reference(stream[i]),
                          static_cast<int>(i));
      }
    };
    pass();
    const sim::MemoryTracker first = disp.device_memory();
    pass();
    const sim::MemoryTracker second = disp.device_memory();
    for (const sim::MemKind kind : kStagingKinds) {
      SCOPED_TRACE(sim::to_string(kind));
      EXPECT_GT(first.total_allocations(kind), 0u);
      EXPECT_EQ(second.total_allocations(kind),
                first.total_allocations(kind));
      EXPECT_EQ(second.current_bytes(kind), first.current_bytes(kind));
      // One job in flight at a time: three buffers of each kind cached.
      EXPECT_EQ(second.live_allocations(kind), 3u);
    }
  }
}

TEST(StagingRecycle, OverlappedJobsStageThroughDistinctBuffers) {
  const std::vector<StagedCall> stream = descending_stream();
  dispatch::Dispatcher disp(identity_config());
  // Warm the list with one finished job, then hold two jobs in flight.
  std::vector<double> warm, first_out, second_out;
  auto warm_job = enqueue_staged(disp, stream[0], warm);
  disp.finish_gpu_job(warm_job);

  auto first = enqueue_staged(disp, stream[1], first_out);
  auto second = enqueue_staged(disp, stream[2], second_out);
  ASSERT_EQ(first.buffers.size(), 6u);
  ASSERT_EQ(second.buffers.size(), 6u);
  for (const sim::Buffer& x : first.buffers) {
    for (const sim::Buffer& y : second.buffers) {
      EXPECT_NE(x.data(), y.data()) << "in-flight jobs share a buffer";
    }
  }
  disp.finish_gpu_job(second);
  disp.finish_gpu_job(first);
  expect_bitwise_eq(first_out, staged_reference(stream[1]), 1);
  expect_bitwise_eq(second_out, staged_reference(stream[2]), 2);

  // The list keeps the peak in flight (two jobs) and no more.
  const sim::MemoryTracker peak = disp.device_memory();
  std::vector<double> later;
  auto later_job = enqueue_staged(disp, stream[3], later);
  disp.finish_gpu_job(later_job);
  expect_bitwise_eq(later, staged_reference(stream[3]), 3);
  const sim::MemoryTracker after = disp.device_memory();
  for (const sim::MemKind kind : kStagingKinds) {
    SCOPED_TRACE(sim::to_string(kind));
    EXPECT_EQ(peak.live_allocations(kind), 6u);
    EXPECT_EQ(after.total_allocations(kind), peak.total_allocations(kind));
  }
}

}  // namespace
