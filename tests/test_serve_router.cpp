// Serve-layer routing properties: the router is a pure function of
// (descriptor, fleet load) — identical profiles under zero load are
// deterministic, ties break toward the shallower queue then the lower
// device id, load steers traffic away, and heterogeneous profiles win
// on modelled cost. The fleet-level anchors: a 1-device fleet is
// bit-identical to a lone Dispatcher fed the same calls (under the
// producer's error budget too), and shedding touches ONLY past-deadline
// requests (BestEffort never sheds).

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "sysprofile/profile.hpp"

namespace {

using namespace blob;
using dispatch::Dispatcher;
using dispatch::DispatcherConfig;
using serve::DeviceFleet;
using serve::DeviceView;
using serve::FleetConfig;
using serve::Outcome;
using serve::RequestClass;
using serve::RouteChoice;
using serve::Router;
using serve::ServeResult;

DispatcherConfig quiet_config(profile::SystemProfile profile) {
  DispatcherConfig config;
  config.profile = std::move(profile);
  config.cpu_threads = 2;
  return config;
}

core::OpDesc gemm_desc(int m, int n, int k) {
  return core::OpDesc::gemm(model::Precision::F32, blas::Transpose::No,
                            blas::Transpose::No, m, n, k, 0, 0, 0,
                            /*alpha_one=*/true, /*beta_zero=*/true);
}

TEST(ServeRouter, IdenticalProfilesZeroLoadIsDeterministicDeviceZero) {
  Dispatcher d0(quiet_config(profile::dawn()));
  Dispatcher d1(quiet_config(profile::dawn()));
  std::vector<DeviceView> views{{&d0, 0.0, 0}, {&d1, 0.0, 0}};
  const Router router;
  const core::OpDesc desc = gemm_desc(256, 256, 256);
  const RouteChoice first = router.choose(desc, views);
  EXPECT_EQ(first.device, 0);  // tie -> lowest device id
  EXPECT_DOUBLE_EQ(first.est_s, first.oracle_s);
  for (int i = 0; i < 16; ++i) {
    const RouteChoice again = router.choose(desc, views);
    EXPECT_EQ(again.device, first.device);
    EXPECT_DOUBLE_EQ(again.est_s, first.est_s);
    EXPECT_DOUBLE_EQ(again.score, first.score);
  }
}

TEST(ServeRouter, TieBreaksTowardShallowerQueue) {
  Dispatcher d0(quiet_config(profile::dawn()));
  Dispatcher d1(quiet_config(profile::dawn()));
  // Equal modelled cost and equal outstanding work: depth decides.
  std::vector<DeviceView> views{{&d0, 0.0, 5}, {&d1, 0.0, 2}};
  const RouteChoice choice = Router{}.choose(gemm_desc(128, 128, 128), views);
  EXPECT_EQ(choice.device, 1);
}

TEST(ServeRouter, OutstandingWorkSteersAway) {
  Dispatcher d0(quiet_config(profile::dawn()));
  Dispatcher d1(quiet_config(profile::dawn()));
  std::vector<DeviceView> views{{&d0, 1.0, 0}, {&d1, 0.0, 0}};
  const RouteChoice choice = Router{}.choose(gemm_desc(128, 128, 128), views);
  EXPECT_EQ(choice.device, 1);
  // The oracle ignores load: it is still the fleet-wide cheapest cost.
  EXPECT_DOUBLE_EQ(choice.oracle_s, choice.est_s);
}

TEST(ServeRouter, HeterogeneousProfilesPickTheModelledCheaperDevice) {
  Dispatcher dawn(quiet_config(profile::dawn()));
  Dispatcher lumi(quiet_config(profile::lumi()));
  std::vector<DeviceView> views{{&dawn, 0.0, 0}, {&lumi, 0.0, 0}};
  const core::OpDesc desc = gemm_desc(768, 768, 768);
  const auto cost = [&](const Dispatcher& d) {
    const Dispatcher::Costs c = d.modelled_costs(desc);
    return std::min(c.cpu_s, c.gpu_s);
  };
  const double dawn_s = cost(dawn);
  const double lumi_s = cost(lumi);
  ASSERT_NE(dawn_s, lumi_s);  // the profiles genuinely disagree
  const RouteChoice choice = Router{}.choose(desc, views);
  EXPECT_EQ(choice.device, dawn_s < lumi_s ? 0 : 1);
  EXPECT_DOUBLE_EQ(choice.est_s, std::min(dawn_s, lumi_s));
  EXPECT_DOUBLE_EQ(choice.oracle_s, std::min(dawn_s, lumi_s));
}

TEST(ServeMetrics, HistogramQuantileInterpolatesWithinBuckets) {
  obs::Histogram hist;
  EXPECT_DOUBLE_EQ(serve::histogram_quantile(hist, 0.5), 0.0);  // empty
  for (std::uint64_t v = 1; v <= 100; ++v) hist.record(v);
  const double p50 = serve::histogram_quantile(hist, 0.50);
  const double p99 = serve::histogram_quantile(hist, 0.99);
  // Log2 buckets bound the estimate to the enclosing power-of-two span.
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 128.0);
  EXPECT_LE(serve::histogram_quantile(hist, 0.0), 2.0);
  EXPECT_GE(serve::histogram_quantile(hist, 1.0), 64.0);
  EXPECT_LE(p50, p99);  // monotone in q
}

// -- fleet-level properties --------------------------------------------------

struct Arena {
  std::vector<float> af, bf, cf, xf, yf;
  std::vector<double> ad, bd, cd, xd, yd;
};

// Deterministic operand fill (same stream both runs).
void fill(Arena& arena) {
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 2000) / 1000.0 - 1.0;
  };
  arena.af.resize(64 * 64);
  arena.bf.resize(64 * 64);
  arena.cf.resize(64 * 64);
  arena.ad.resize(96 * 96);
  arena.bd.resize(96 * 96);
  arena.cd.resize(96 * 96);
  arena.xf.resize(320);
  arena.yf.resize(320);
  arena.xd.resize(384);
  arena.yd.resize(384);
  for (auto& v : arena.af) v = static_cast<float>(next());
  for (auto& v : arena.bf) v = static_cast<float>(next());
  for (auto& v : arena.ad) v = next();
  for (auto& v : arena.bd) v = next();
  for (auto& v : arena.xf) v = static_cast<float>(next());
  for (auto& v : arena.xd) v = next();
}

constexpr int kFleetCalls = 200;

// Drive one run of the mixed sequence. `gemm_f32 / gemm_f64 / gemv_f32 /
// gemv_f64` are callbacks so the same loop serves both the fleet and the
// lone dispatcher.
template <typename GemmF, typename GemmD, typename GemvF, typename GemvD>
void drive_sequence(Arena& arena, GemmF&& gemm_f32, GemmD&& gemm_f64,
                    GemvF&& gemv_f32, GemvD&& gemv_f64) {
  std::vector<float> gemv_a_f(320 * 320);
  std::vector<double> gemv_a_d(384 * 384);
  for (std::size_t i = 0; i < gemv_a_f.size(); ++i) {
    gemv_a_f[i] = static_cast<float>((i % 17)) * 0.25f - 2.0f;
  }
  for (std::size_t i = 0; i < gemv_a_d.size(); ++i) {
    gemv_a_d[i] = static_cast<double>(i % 23) * 0.125 - 1.5;
  }
  for (int i = 0; i < kFleetCalls; ++i) {
    switch (i % 4) {
      case 0:
        gemm_f32(64, arena.af.data(), arena.bf.data(), arena.cf.data());
        break;
      case 1:
        gemm_f64(96, arena.ad.data(), arena.bd.data(), arena.cd.data());
        break;
      case 2:
        gemv_f32(320, gemv_a_f.data(), arena.xf.data(), arena.yf.data());
        break;
      case 3:
        gemv_f64(384, gemv_a_d.data(), arena.xd.data(), arena.yd.data());
        break;
    }
  }
}

bool records_equal(const dispatch::TraceRecord& lhs,
                   const dispatch::TraceRecord& rhs) {
  return lhs.seq == rhs.seq && lhs.device == rhs.device && lhs.op == rhs.op &&
         lhs.precision == rhs.precision && lhs.mode == rhs.mode &&
         lhs.bucket == rhs.bucket && lhs.trans_a == rhs.trans_a &&
         lhs.trans_b == rhs.trans_b && lhs.m == rhs.m && lhs.n == rhs.n &&
         lhs.k == rhs.k && lhs.route == rhs.route &&
         lhs.reason == rhs.reason && lhs.cpu_est_s == rhs.cpu_est_s &&
         lhs.gpu_est_s == rhs.gpu_est_s && lhs.cost_s == rhs.cost_s &&
         lhs.observed_s == rhs.observed_s && lhs.batch == rhs.batch &&
         lhs.residency == rhs.residency &&
         lhs.h2d_moved_bytes == rhs.h2d_moved_bytes &&
         lhs.h2d_skipped_bytes == rhs.h2d_skipped_bytes;
  // span_id deliberately excluded: it ties records to ambient obs spans,
  // not to dispatch behaviour.
}

// The headline identity: a 1-device fleet fed a mixed sequence in FIFO
// order produces the exact trace (routes, costs, noisy observations) and
// the exact output bytes of a lone Dispatcher running the same calls.
TEST(ServeFleet, SingleDeviceFleetIsBitIdenticalToLoneDispatcher) {
  Arena fleet_arena;
  Arena plain_arena;
  fill(fleet_arena);
  fill(plain_arena);

  std::vector<dispatch::TraceRecord> fleet_trace;
  {
    FleetConfig config;
    config.devices = {profile::dawn()};
    config.base = quiet_config(profile::dawn());
    DeviceFleet fleet(config);
    // Sequential submit-and-wait keeps the comparison exact even though
    // the worker is asynchronous.
    drive_sequence(
        fleet_arena,
        [&](int s, const float* a, const float* b, float* c) {
          fleet
              .submit_gemm<float>(RequestClass::BestEffort,
                                  blas::Transpose::No, blas::Transpose::No, s,
                                  s, s, 1.0f, a, s, b, s, 0.0f, c, s)
              .get();
        },
        [&](int s, const double* a, const double* b, double* c) {
          fleet
              .submit_gemm<double>(RequestClass::BestEffort,
                                   blas::Transpose::No, blas::Transpose::No,
                                   s, s, s, 1.0, a, s, b, s, 0.0, c, s)
              .get();
        },
        [&](int n, const float* a, const float* x, float* y) {
          fleet
              .submit_gemv<float>(RequestClass::BestEffort,
                                  blas::Transpose::No, n, n, 1.0f, a, n, x, 1,
                                  0.0f, y, 1)
              .get();
        },
        [&](int n, const double* a, const double* x, double* y) {
          fleet
              .submit_gemv<double>(RequestClass::BestEffort,
                                   blas::Transpose::Yes, n, n, 1.0, a, n, x,
                                   1, 0.0, y, 1)
              .get();
        });
    fleet.flush();
    fleet_trace = fleet.device(0).trace().snapshot();
    EXPECT_EQ(fleet.stats().shed, 0u);  // BestEffort never sheds
  }

  Dispatcher plain(quiet_config(profile::dawn()));
  const auto mode = plain.effective_mode();
  drive_sequence(
      plain_arena,
      [&](int s, const float* a, const float* b, float* c) {
        const auto desc = core::OpDesc::gemm(
            model::Precision::F32, blas::Transpose::No, blas::Transpose::No,
            s, s, s, s, s, s, true, true, mode);
        plain.run_gemm<float, float>(desc, 1.0f, a, b, 0.0f, c);
      },
      [&](int s, const double* a, const double* b, double* c) {
        const auto desc = core::OpDesc::gemm(
            model::Precision::F64, blas::Transpose::No, blas::Transpose::No,
            s, s, s, s, s, s, true, true, mode);
        plain.run_gemm<double, double>(desc, 1.0, a, b, 0.0, c);
      },
      [&](int n, const float* a, const float* x, float* y) {
        const auto desc =
            core::OpDesc::gemv(model::Precision::F32, blas::Transpose::No, n,
                               n, n, 1, 1, true, true, mode);
        plain.run_gemv<float, float>(desc, 1.0f, a, x, 0.0f, y);
      },
      [&](int n, const double* a, const double* x, double* y) {
        const auto desc =
            core::OpDesc::gemv(model::Precision::F64, blas::Transpose::Yes, n,
                               n, n, 1, 1, true, true, mode);
        plain.run_gemv<double, double>(desc, 1.0, a, x, 0.0, y);
      });
  const std::vector<dispatch::TraceRecord> plain_trace =
      plain.trace().snapshot();

  ASSERT_EQ(fleet_trace.size(), plain_trace.size());
  for (std::size_t i = 0; i < fleet_trace.size(); ++i) {
    EXPECT_TRUE(records_equal(fleet_trace[i], plain_trace[i]))
        << "trace diverges at call " << i;
  }
  EXPECT_EQ(std::memcmp(fleet_arena.cf.data(), plain_arena.cf.data(),
                        fleet_arena.cf.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(fleet_arena.cd.data(), plain_arena.cd.data(),
                        fleet_arena.cd.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(fleet_arena.yf.data(), plain_arena.yf.data(),
                        fleet_arena.yf.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(fleet_arena.yd.data(), plain_arena.yd.data(),
                        fleet_arena.yd.size() * sizeof(double)),
            0);
}

// The fleet carries the PRODUCER's error budget to its worker thread:
// under a relaxed ScopedErrorBudget a 1-device fleet routes an
// emulation-eligible f64 GEMM exactly as a lone dispatcher handed the
// same relaxed descriptor — same routes, same budget fields.
TEST(ServeFleet, SingleDeviceFleetHonoursProducerErrorBudget) {
  constexpr int kDim = 224;
  constexpr int kCalls = 6;
  const DispatcherConfig base = quiet_config(profile::by_name("isambard-ai"));
  std::vector<double> a(kDim * kDim, 0.5), b(kDim * kDim, 0.25);
  std::vector<double> c_fleet(kDim * kDim), c_plain(kDim * kDim);

  std::vector<dispatch::TraceRecord> fleet_trace;
  {
    FleetConfig config;
    config.devices = {base.profile};
    config.base = base;
    DeviceFleet fleet(config);
    const blas::ScopedErrorBudget relaxed(core::ErrorBudget::relaxed());
    for (int i = 0; i < kCalls; ++i) {
      fleet
          .submit_gemm<double>(RequestClass::BestEffort, blas::Transpose::No,
                               blas::Transpose::No, kDim, kDim, kDim, 1.0,
                               a.data(), kDim, b.data(), kDim, 0.0,
                               c_fleet.data(), kDim)
          .get();
    }
    fleet.flush();
    fleet_trace = fleet.device(0).trace().snapshot();
  }

  Dispatcher plain(base);
  core::OpDesc desc = core::OpDesc::gemm(
      model::Precision::F64, blas::Transpose::No, blas::Transpose::No, kDim,
      kDim, kDim, kDim, kDim, kDim, true, true, plain.effective_mode());
  desc.budget = core::ErrorBudget::relaxed();
  for (int i = 0; i < kCalls; ++i) {
    plain.run_gemm<double>(desc, 1.0, a.data(), b.data(), 0.0,
                           c_plain.data());
  }
  const std::vector<dispatch::TraceRecord> plain_trace =
      plain.trace().snapshot();

  ASSERT_EQ(fleet_trace.size(), plain_trace.size());
  bool emulated = false;
  for (std::size_t i = 0; i < fleet_trace.size(); ++i) {
    EXPECT_EQ(fleet_trace[i].route, plain_trace[i].route) << "call " << i;
    EXPECT_EQ(fleet_trace[i].budget, plain_trace[i].budget) << "call " << i;
    EXPECT_EQ(fleet_trace[i].slices, plain_trace[i].slices) << "call " << i;
    EXPECT_EQ(fleet_trace[i].emu_est_s, plain_trace[i].emu_est_s)
        << "call " << i;
    EXPECT_TRUE(records_equal(fleet_trace[i], plain_trace[i]))
        << "trace diverges at call " << i;
    emulated = emulated ||
               fleet_trace[i].route == dispatch::Route::GpuEmulated;
  }
  EXPECT_TRUE(emulated) << "test premise: the relaxed arm is taken";
  EXPECT_EQ(std::memcmp(c_fleet.data(), c_plain.data(),
                        c_fleet.size() * sizeof(double)),
            0);
}

TEST(ServeFleet, ZeroSloNeverSheds) {
  FleetConfig config;
  config.devices = {profile::dawn(), profile::lumi()};
  config.base = quiet_config(profile::dawn());
  config.slo.interactive_ms = 0.0;  // 0 disables the deadline
  config.slo.batch_ms = 0.0;
  DeviceFleet fleet(config);

  std::vector<float> a(48 * 48, 0.5f), b(48 * 48, 0.25f);
  // One output per request: the two devices run concurrently, so a
  // shared C would be a data race between their kernels.
  std::vector<std::vector<float>> c(60, std::vector<float>(48 * 48));
  std::vector<std::future<ServeResult>> pending;
  for (int i = 0; i < 60; ++i) {
    const RequestClass cls = i % 2 == 0 ? RequestClass::Interactive
                                        : RequestClass::Batch;
    pending.push_back(fleet.submit_gemm<float>(
        cls, blas::Transpose::No, blas::Transpose::No, 48, 48, 48, 1.0f,
        a.data(), 48, b.data(), 48, 0.0f, c[i].data(), 48));
  }
  fleet.flush();
  for (auto& f : pending) {
    EXPECT_EQ(f.get().outcome, Outcome::Completed);
  }
  EXPECT_EQ(fleet.stats().shed, 0u);
  EXPECT_EQ(fleet.stats().completed, 60u);
}

// Only past-deadline work is shed: with a 1 ns interactive SLO every
// interactive request is already late when the worker dequeues it, so
// all of them shed with their output buffers untouched — while the
// BestEffort traffic interleaved with them all completes.
TEST(ServeFleet, ShedsOnlyPastDeadlineAndNeverBestEffort) {
  FleetConfig config;
  config.devices = {profile::dawn()};
  config.base = quiet_config(profile::dawn());
  config.slo.interactive_ms = 1.0e-6;  // ~1 ns: late by dequeue time
  config.slo.batch_ms = 0.0;
  DeviceFleet fleet(config);

  std::vector<float> a(64 * 64, 0.5f), x(64, 0.25f);
  std::vector<float> y_interactive(64, 42.0f);  // sentinel: must survive
  std::vector<float> y_best(64, 0.0f);
  std::vector<std::future<ServeResult>> interactive;
  std::vector<std::future<ServeResult>> best_effort;
  for (int i = 0; i < 40; ++i) {
    interactive.push_back(fleet.submit_gemv<float>(
        RequestClass::Interactive, blas::Transpose::No, 64, 64, 1.0f,
        a.data(), 64, x.data(), 1, 0.0f, y_interactive.data(), 1));
    best_effort.push_back(fleet.submit_gemv<float>(
        RequestClass::BestEffort, blas::Transpose::No, 64, 64, 1.0f,
        a.data(), 64, x.data(), 1, 0.0f, y_best.data(), 1));
  }
  fleet.flush();

  for (auto& f : interactive) {
    EXPECT_EQ(f.get().outcome, Outcome::Shed);
  }
  for (auto& f : best_effort) {
    EXPECT_EQ(f.get().outcome, Outcome::Completed);
  }
  for (const float v : y_interactive) {
    EXPECT_EQ(v, 42.0f);  // shed work never touched its output
  }
  const serve::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed, 40u);
  EXPECT_EQ(stats.completed, 40u);
  EXPECT_EQ(stats.submitted, 80u);
}

}  // namespace
