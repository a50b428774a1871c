// Admission queue: multi-threaded submission with correct results,
// same-shape coalescing into gemm_batched / gemv_batched, transfer/
// compute overlap between GPU-routed jobs and CPU work drained in the
// same cycle, and submission order on shared output buffers.

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "blas/ref_blas.hpp"
#include "blas_test_util.hpp"
#include "dispatch/admission_queue.hpp"
#include "dispatch/dispatcher.hpp"

namespace {

using namespace blob;
using blob::test::random_vector;

// One GEMM call's operands, kept alive until its future resolves and
// checkable against the reference kernels afterwards.
template <typename T>
struct GemmCall {
  int m, n, k;
  std::vector<T> a, b, c, expected;

  GemmCall(int m_, int n_, int k_, int seed) : m(m_), n(n_), k(k_) {
    a = random_vector<T>(static_cast<std::size_t>(m) * k, seed);
    b = random_vector<T>(static_cast<std::size_t>(k) * n, seed + 1);
    c = random_vector<T>(static_cast<std::size_t>(m) * n, seed + 2);
    expected = c;
    blas::ref::gemm(blas::Transpose::No, blas::Transpose::No, m, n, k, T(1),
                    a.data(), m, b.data(), k, T(0), expected.data(), m);
  }

  std::future<void> submit(dispatch::AdmissionQueue& queue) {
    return queue.submit_gemm<T>(blas::Transpose::No, blas::Transpose::No, m,
                                n, k, T(1), a.data(), m, b.data(), k, T(0),
                                c.data(), m);
  }
};

TEST(DispatchQueue, MultiThreadedStressProducesCorrectResults) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  cfg.cpu_threads = 2;
  dispatch::Dispatcher disp(cfg);
  dispatch::AdmissionQueueConfig qcfg;
  qcfg.max_drain = 64;
  qcfg.coalesce_min = 3;
  qcfg.coalesce_max_dim = 64;
  dispatch::AdmissionQueue queue(disp, qcfg);

  // A mid-size plug occupies the worker while the client threads flood
  // the queue, so later drain cycles see a full coalescing window.
  GemmCall<double> plug(256, 256, 256, 1);
  auto plug_future = plug.submit(queue);

  constexpr int kThreads = 4;
  constexpr int kSmall = 10;  // same-shape 32^3 -> coalescible
  constexpr int kMid = 3;     // 160^3 f64 -> per-call routing
  std::vector<std::vector<GemmCall<float>>> smalls(kThreads);
  std::vector<std::vector<GemmCall<double>>> mids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    smalls[t].reserve(kSmall);
    mids[t].reserve(kMid);
    for (int i = 0; i < kSmall; ++i) {
      smalls[t].emplace_back(32, 32, 32, 100 + t * 50 + i);
    }
    for (int i = 0; i < kMid; ++i) {
      mids[t].emplace_back(160, 160, 160, 500 + t * 50 + i);
    }
  }

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<void>> futures;
      for (auto& call : smalls[t]) futures.push_back(call.submit(queue));
      for (auto& call : mids[t]) futures.push_back(call.submit(queue));
      for (auto& f : futures) f.get();
    });
  }
  for (auto& c : clients) c.join();
  plug_future.get();
  queue.flush();

  const std::uint64_t total = 1 + kThreads * (kSmall + kMid);
  EXPECT_EQ(queue.submitted(), total);
  EXPECT_EQ(queue.completed(), total);

  test::expect_near_rel(plug.c, plug.expected, 1e-10);
  for (int t = 0; t < kThreads; ++t) {
    for (auto& call : smalls[t]) {
      test::expect_near_rel(call.c, call.expected, 1e-4);
    }
    for (auto& call : mids[t]) {
      test::expect_near_rel(call.c, call.expected, 1e-10);
    }
  }

  const auto stats = disp.stats();
  EXPECT_EQ(stats.calls, total);
  // The 40 same-shape 32^3 GEMMs cannot all have been drained in
  // sub-coalesce_min dribbles with the plug holding the worker.
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_GE(stats.batched_routed, static_cast<std::uint64_t>(qcfg.coalesce_min));
  EXPECT_EQ(stats.cpu_routed + stats.gpu_routed + stats.batched_routed,
            total);
}

TEST(DispatchQueue, GpuJobsOverlapWithCpuWorkInTheSameCycle) {
  // isambard-ai's modelled GPU wins from small sizes up, so mid GEMMs
  // route to the simulated device at cold start while the coalesced
  // small batch runs on the CPU — the queue must join the GPU jobs after
  // that CPU work (cudaMemcpyAsync-style overlap).
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::by_name("isambard-ai");
  cfg.cpu_threads = 2;
  dispatch::Dispatcher disp(cfg);

  const core::OpDesc mid = core::OpDesc::gemm(
      model::Precision::F32, blas::Transpose::No, blas::Transpose::No, 224,
      224, 224, 0, 0, 0, /*alpha_one=*/true, /*beta_zero=*/true, cfg.mode);
  ASSERT_EQ(disp.oracle_route(mid), dispatch::Route::Gpu)
      << "test premise: 224^3 f32 offloads on isambard-ai";

  dispatch::AdmissionQueueConfig qcfg;
  qcfg.max_drain = 64;
  qcfg.coalesce_min = 3;
  qcfg.coalesce_max_dim = 64;
  dispatch::AdmissionQueue queue(disp, qcfg);

  GemmCall<double> plug(224, 224, 224, 7);
  auto plug_future = plug.submit(queue);

  std::vector<GemmCall<float>> gpu_calls;
  std::vector<GemmCall<float>> small_calls;
  for (int i = 0; i < 4; ++i) gpu_calls.emplace_back(224, 224, 224, 20 + i);
  for (int i = 0; i < 8; ++i) small_calls.emplace_back(32, 32, 32, 40 + i);

  std::vector<std::future<void>> futures;
  for (auto& call : gpu_calls) futures.push_back(call.submit(queue));
  for (auto& call : small_calls) futures.push_back(call.submit(queue));
  plug_future.get();
  for (auto& f : futures) f.get();
  queue.flush();

  test::expect_near_rel(plug.c, plug.expected, 1e-10);
  for (auto& call : gpu_calls) {
    test::expect_near_rel(call.c, call.expected, 1e-3);
  }
  for (auto& call : small_calls) {
    test::expect_near_rel(call.c, call.expected, 1e-4);
  }

  const auto stats = disp.stats();
  EXPECT_GE(stats.gpu_routed, 4u);
  EXPECT_GE(stats.overlapped_gpu_calls, 1u);
  EXPECT_GE(stats.gpu_ops_enqueued, 4u * 5u);  // 4 uploads + kernel per call
  // Virtual time advanced on the simulated device while real results
  // landed in the client buffers.
  EXPECT_GT(disp.virtual_now(), 0.0);
}

// One GEMV call's operands, analogous to GemmCall.
template <typename T>
struct GemvCall {
  blas::Transpose ta;
  int m, n, incx, incy;
  std::vector<T> a, x, y, expected;

  GemvCall(blas::Transpose ta_, int m_, int n_, int seed, int incx_ = 1,
           int incy_ = 1)
      : ta(ta_), m(m_), n(n_), incx(incx_), incy(incy_) {
    const int x_len = ta == blas::Transpose::No ? n : m;
    const int y_len = ta == blas::Transpose::No ? m : n;
    a = random_vector<T>(static_cast<std::size_t>(m) * n, seed);
    x = random_vector<T>(static_cast<std::size_t>(x_len) * std::abs(incx),
                         seed + 1);
    y = random_vector<T>(static_cast<std::size_t>(y_len) * std::abs(incy),
                         seed + 2);
    expected = y;
    blas::ref::gemv(ta, m, n, T(1), a.data(), m, x.data(), incx, T(0),
                    expected.data(), incy);
  }

  std::future<void> submit(dispatch::AdmissionQueue& queue) {
    return queue.submit_gemv<T>(ta, m, n, T(1), a.data(), m, x.data(), incx,
                                T(0), y.data(), incy);
  }
};

TEST(DispatchQueue, SmallGemvFloodCoalescesIntoBatched) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  cfg.cpu_threads = 2;
  dispatch::Dispatcher disp(cfg);
  dispatch::AdmissionQueueConfig qcfg;
  qcfg.max_drain = 64;
  qcfg.coalesce_min = 3;
  qcfg.coalesce_max_dim = 64;
  dispatch::AdmissionQueue queue(disp, qcfg);

  // Two same-shape groups (one per transpose) of unit-stride small GEMVs:
  // everything is device-legal, so nothing may be Reason::Forced — the
  // flood must be absorbed by gemv_batched coalescing instead. All calls
  // are constructed BEFORE the plug is submitted so the flood's pushes
  // are back-to-back while the plug still occupies the worker.
  std::vector<GemvCall<float>> no_trans;
  std::vector<GemvCall<double>> trans;
  for (int i = 0; i < 12; ++i) {
    no_trans.emplace_back(blas::Transpose::No, 48, 48, 600 + 3 * i);
  }
  for (int i = 0; i < 8; ++i) {
    trans.emplace_back(blas::Transpose::Yes, 40, 56, 700 + 3 * i);
  }

  // The plug occupies the worker so the flood lands in one window. It
  // must be a call the worker EXECUTES on the CPU for real wall-clock
  // time: a GEMM could be routed to the simulated device, where the
  // worker merely enqueues and moves on in microseconds. A large
  // strided GEMV is deterministically Forced onto the CPU (non-unit
  // increments are device-illegal) and streams a ~32 MB matrix.
  GemvCall<double> plug(blas::Transpose::No, 2000, 2000, 11,
                        /*incx=*/2, /*incy=*/3);
  auto plug_future = plug.submit(queue);

  std::vector<std::future<void>> futures;
  for (auto& call : no_trans) futures.push_back(call.submit(queue));
  for (auto& call : trans) futures.push_back(call.submit(queue));
  plug_future.get();
  for (auto& f : futures) f.get();
  queue.flush();

  // Results are numerically identical to serial reference execution
  // whichever internal path (coalesced batch, CPU, simulated GPU) ran.
  test::expect_near_rel(plug.y, plug.expected, 1e-10);
  for (auto& call : no_trans) {
    test::expect_near_rel(call.y, call.expected, 1e-4);
  }
  for (auto& call : trans) {
    test::expect_near_rel(call.y, call.expected, 1e-10);
  }

  const auto stats = disp.stats();
  EXPECT_EQ(stats.gemv_calls + stats.gemm_calls, 21u);
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_GE(stats.batched_routed,
            static_cast<std::uint64_t>(qcfg.coalesce_min));
  EXPECT_EQ(stats.forced_cpu, 1u)
      << "only the strided plug may be Reason::Forced; unit-stride "
         "GEMVs must never be";
}

TEST(DispatchQueue, StridedGemvsCoalesceByIncrementGroup) {
  // Strided vectors are illegal on the simulated device (Reason::Forced
  // when routed per-call) but perfectly coalescible — the batched CPU
  // primitive stages them. A flood of same-stride GEMVs must batch.
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  cfg.cpu_threads = 2;
  dispatch::Dispatcher disp(cfg);
  dispatch::AdmissionQueueConfig qcfg;
  qcfg.max_drain = 64;
  qcfg.coalesce_min = 3;
  qcfg.coalesce_max_dim = 64;
  dispatch::AdmissionQueue queue(disp, qcfg);

  // Construct everything before any submission: call setup runs a
  // reference GEMV each, and doing that between the plug's submission
  // and the flood's would let the worker drain the flood in dribbles.
  std::vector<GemvCall<double>> strided;
  for (int i = 0; i < 10; ++i) {
    strided.emplace_back(blas::Transpose::No, 32, 48, 800 + 3 * i,
                         /*incx=*/2, /*incy=*/3);
  }
  // Same plug trick as above: a large strided GEMV is deterministically
  // CPU-executed, so the worker is genuinely busy while the flood lands.
  GemvCall<double> plug(blas::Transpose::No, 2000, 2000, 13,
                        /*incx=*/2, /*incy=*/3);
  auto plug_future = plug.submit(queue);

  std::vector<std::future<void>> futures;
  for (auto& call : strided) futures.push_back(call.submit(queue));
  plug_future.get();
  for (auto& f : futures) f.get();
  queue.flush();

  test::expect_near_rel(plug.y, plug.expected, 1e-10);
  for (auto& call : strided) {
    test::expect_near_rel(call.y, call.expected, 1e-10);
  }
  const auto stats = disp.stats();
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_GE(stats.batched_routed,
            static_cast<std::uint64_t>(qcfg.coalesce_min));
}

TEST(DispatchQueue, SubmitAfterStopThrows) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  cfg.cpu_threads = 1;
  dispatch::Dispatcher disp(cfg);
  dispatch::AdmissionQueue queue(disp);
  GemmCall<float> call(16, 16, 16, 3);
  call.submit(queue).get();
  queue.stop();
  EXPECT_THROW(call.submit(queue), std::runtime_error);
  EXPECT_EQ(queue.completed(), 1u);
}

TEST(DispatchQueue, SharedOutputBurstRunsInSubmissionOrder) {
  // A burst of coalesce_min same-shape GEMMs accumulating into ONE C
  // (beta = 1) is a chain of read-after-write hazards. Coalescing it into
  // one gemm_batched would let pool threads update C concurrently; the
  // queue must run the members one after another, so C ends bitwise
  // equal to the same calls run serially through a lone dispatcher.
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::dawn();
  cfg.cpu_threads = 4;
  const dispatch::AdmissionQueueConfig qcfg;
  const int burst = qcfg.coalesce_min;
  constexpr int kDim = 64;
  std::vector<std::vector<double>> as;
  std::vector<std::vector<double>> bs;
  for (int i = 0; i < burst; ++i) {
    as.push_back(random_vector<double>(kDim * kDim, 900 + 2 * i));
    bs.push_back(random_vector<double>(kDim * kDim, 901 + 2 * i));
  }
  const std::vector<double> c0 = random_vector<double>(kDim * kDim, 999);
  // The plug is deterministically Forced onto the CPU (strided vectors)
  // and keeps the worker busy while the burst lands in one window.
  GemvCall<double> plug(blas::Transpose::No, 2000, 2000, 17,
                        /*incx=*/2, /*incy=*/3);
  const std::vector<double> plug_y0 = plug.y;

  std::vector<double> expected = c0;
  {
    dispatch::Dispatcher serial(cfg);
    const auto mode = serial.effective_mode();
    std::vector<double> y = plug_y0;
    serial.run_gemv<double>(
        core::OpDesc::gemv(model::Precision::F64, blas::Transpose::No, 2000,
                           2000, 2000, 2, 3, true, true, mode),
        1.0, plug.a.data(), plug.x.data(), 0.0, y.data());
    for (int i = 0; i < burst; ++i) {
      serial.run_gemm<double>(
          core::OpDesc::gemm(model::Precision::F64, blas::Transpose::No,
                             blas::Transpose::No, kDim, kDim, kDim, kDim,
                             kDim, kDim, true, false, mode),
          1.0, as[i].data(), bs[i].data(), 1.0, expected.data());
    }
  }

  dispatch::Dispatcher disp(cfg);
  dispatch::AdmissionQueue queue(disp, qcfg);
  std::vector<double> c = c0;
  std::vector<std::future<void>> futures;
  futures.push_back(plug.submit(queue));
  for (int i = 0; i < burst; ++i) {
    futures.push_back(queue.submit_gemm<double>(
        blas::Transpose::No, blas::Transpose::No, kDim, kDim, kDim, 1.0,
        as[i].data(), kDim, bs[i].data(), kDim, 1.0, c.data(), kDim));
  }
  for (auto& f : futures) f.get();
  queue.flush();

  EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(double)),
            0)
      << "shared-output burst diverged from serial execution";
  const auto stats = disp.stats();
  EXPECT_EQ(stats.coalesced_batches, 0u)
      << "members with overlapping outputs must never coalesce";
  EXPECT_EQ(stats.gemm_calls, static_cast<std::uint64_t>(burst));
}

}  // namespace
