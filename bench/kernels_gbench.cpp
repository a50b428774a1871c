// Micro-benchmarks of the real CPU BLAS kernels on this host
// (google-benchmark), plus the dispatcher's residency bookkeeping. These
// measure the library itself, not the simulated systems; sizes are kept
// modest so the suite completes quickly on small machines.
//
// scripts/bench_gemm.sh runs the GEMM subset and writes
// artifacts/BENCH_gemm.json for cross-commit comparison.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "blas/batched.hpp"
#include "blas/gemm.hpp"
#include "blas/ref_blas.hpp"
#include "dispatch/dispatcher.hpp"
#include "dispatch/residency.hpp"
#include "lapack/getrf.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv.hpp"
#include "blas/gemv.hpp"
#include "blas/level1.hpp"
#include "parallel/thread_pool.hpp"
#include "sysprofile/profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace blob;

template <typename T>
std::vector<T> random_vec(std::size_t len, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<T> v(len);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

template <typename T>
void BM_gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 1);
  auto b = random_vec<T>(static_cast<std::size_t>(n) * n, 2);
  std::vector<T> c(static_cast<std::size_t>(n) * n, T(0));
  for (auto _ : state) {
    blas::gemm_serial(blas::Transpose::No, blas::Transpose::No, n, n, n,
                      T(1), a.data(), n, b.data(), n, T(0), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

/// Collaborative-parallel GEMM over arbitrary (m, n, k, threads). The
/// pool is built once and the first call outside the timing loop grows
/// the packing arena, so iterations measure steady-state (zero-alloc)
/// behaviour — the regime the offload-threshold sweeps run in.
template <typename T>
void BM_gemm_parallel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  const auto threads = static_cast<std::size_t>(state.range(3));
  parallel::ThreadPool pool(threads);
  auto a = random_vec<T>(static_cast<std::size_t>(m) * k, 1);
  auto b = random_vec<T>(static_cast<std::size_t>(k) * n, 2);
  std::vector<T> c(static_cast<std::size_t>(m) * n, T(0));
  blas::gemm(blas::Transpose::No, blas::Transpose::No, m, n, k, T(1),
             a.data(), m, b.data(), k, T(0), c.data(), m, &pool,
             threads);  // warm-up: size the arena outside the timed loop
  for (auto _ : state) {
    blas::gemm(blas::Transpose::No, blas::Transpose::No, m, n, k, T(1),
               a.data(), m, b.data(), k, T(0), c.data(), m, &pool, threads);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}

/// Transposed layouts through the packed engine: Args are {n, ta, tb}
/// with 0 = No, 1 = Yes. The packing kernels absorb the transpose, so
/// TN/NT/TT should track the NN rate — this is the regression watch for
/// the first-class transposed dispatch path.
template <typename T>
void BM_gemm_trans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto ta = state.range(1) ? blas::Transpose::Yes : blas::Transpose::No;
  const auto tb = state.range(2) ? blas::Transpose::Yes : blas::Transpose::No;
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 1);
  auto b = random_vec<T>(static_cast<std::size_t>(n) * n, 2);
  std::vector<T> c(static_cast<std::size_t>(n) * n, T(0));
  for (auto _ : state) {
    blas::gemm_serial(ta, tb, n, n, n, T(1), a.data(), n, b.data(), n, T(0),
                      c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

template <typename T>
void BM_gemv(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 3);
  auto x = random_vec<T>(static_cast<std::size_t>(n), 4);
  std::vector<T> y(static_cast<std::size_t>(n), T(0));
  for (auto _ : state) {
    blas::gemv_serial(blas::Transpose::No, n, n, T(1), a.data(), n, x.data(),
                      1, T(0), y.data(), 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n);
}

template <typename T>
void BM_gemv_trans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 3);
  auto x = random_vec<T>(static_cast<std::size_t>(n), 4);
  std::vector<T> y(static_cast<std::size_t>(n), T(0));
  for (auto _ : state) {
    blas::gemv_serial(blas::Transpose::Yes, n, n, T(1), a.data(), n,
                      x.data(), 1, T(0), y.data(), 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n);
}

/// True scalar GEMV baseline: the same column-axpy loop nest as
/// blas::ref::gemv but with auto-vectorization disabled, so the
/// BM_gemv / BM_gemv_scalar ratio isolates what the SIMD engine buys
/// over one-lane code (ref::gemv as compiled is auto-vectorized and
/// only measures the cache-blocking gap).
template <typename T>
#if !defined(__clang__) && defined(__GNUC__)
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif
void scalar_gemv(int m, int n, T alpha, const T* a, int lda, const T* x,
                 T beta, T* y) {
  for (int i = 0; i < m; ++i) y[i] = beta == T(0) ? T(0) : beta * y[i];
  for (int j = 0; j < n; ++j) {
    const T t = alpha * x[j];
    const T* col = a + static_cast<std::size_t>(j) * lda;
#if defined(__clang__)
#pragma clang loop vectorize(disable) interleave(disable)
#endif
    for (int i = 0; i < m; ++i) y[i] += t * col[i];
  }
}

template <typename T>
void BM_gemv_scalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 3);
  auto x = random_vec<T>(static_cast<std::size_t>(n), 4);
  std::vector<T> y(static_cast<std::size_t>(n), T(0));
  for (auto _ : state) {
    scalar_gemv(n, n, T(1), a.data(), n, x.data(), T(0), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n);
}

/// Library reference GEMV as compiled (auto-vectorized): the
/// cache-behaviour comparison point.
template <typename T>
void BM_gemv_reference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 3);
  auto x = random_vec<T>(static_cast<std::size_t>(n), 4);
  std::vector<T> y(static_cast<std::size_t>(n), T(0));
  for (auto _ : state) {
    blas::ref::gemv(blas::Transpose::No, n, n, T(1), a.data(), n, x.data(),
                    1, T(0), y.data(), 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n);
}

/// Threaded GEMV over {m, n, trans, threads}. Tall-skinny transposed
/// shapes drive the split-m partial-y tree reduction; square NoTrans
/// shapes drive the row-split path. The warm-up call sizes the arena
/// so iterations measure steady-state behaviour.
template <typename T>
void BM_gemv_parallel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto ta = state.range(2) ? blas::Transpose::Yes : blas::Transpose::No;
  const auto threads = static_cast<std::size_t>(state.range(3));
  parallel::ThreadPool pool(threads);
  auto a = random_vec<T>(static_cast<std::size_t>(m) * n, 3);
  const int xlen = ta == blas::Transpose::No ? n : m;
  const int ylen = ta == blas::Transpose::No ? m : n;
  auto x = random_vec<T>(static_cast<std::size_t>(xlen), 4);
  std::vector<T> y(static_cast<std::size_t>(ylen), T(0));
  blas::gemv(ta, m, n, T(1), a.data(), m, x.data(), 1, T(0), y.data(), 1,
             &pool, threads);  // warm-up: size the arena outside the loop
  for (auto _ : state) {
    blas::gemv(ta, m, n, T(1), a.data(), m, x.data(), 1, T(0), y.data(), 1,
               &pool, threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n);
}

/// Batched small GEMV through the pointer-array primitive — one
/// fork/join amortised over the whole batch (the admission queue's
/// coalescing payload). Args: {dim, batch, threads}.
template <typename T>
void BM_gemv_batched(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  parallel::ThreadPool pool(threads);
  const std::size_t mat = static_cast<std::size_t>(dim) * dim;
  auto a = random_vec<T>(mat * batch, 3);
  auto x = random_vec<T>(static_cast<std::size_t>(dim) * batch, 4);
  std::vector<T> y(static_cast<std::size_t>(dim) * batch, T(0));
  std::vector<const T*> as(batch), xs(batch);
  std::vector<T*> ys(batch);
  for (int i = 0; i < batch; ++i) {
    as[i] = a.data() + mat * i;
    xs[i] = x.data() + static_cast<std::size_t>(dim) * i;
    ys[i] = y.data() + static_cast<std::size_t>(dim) * i;
  }
  for (auto _ : state) {
    blas::gemv_batched(blas::Transpose::No, dim, dim, T(1), as.data(), dim,
                       xs.data(), 1, T(0), ys.data(), 1, batch, &pool,
                       threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * dim * dim * batch);
}

template <typename T>
void BM_dot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto x = random_vec<T>(static_cast<std::size_t>(n), 5);
  auto y = random_vec<T>(static_cast<std::size_t>(n), 6);
  for (auto _ : state) {
    T r = blas::dot(n, x.data(), 1, y.data(), 1);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n);
}

template <typename T>
void BM_axpy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto x = random_vec<T>(static_cast<std::size_t>(n), 7);
  std::vector<T> y(static_cast<std::size_t>(n), T(0));
  for (auto _ : state) {
    blas::axpy(n, T(1.5), x.data(), 1, y.data(), 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n);
}

template <typename T>
void BM_gemm_reference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = random_vec<T>(static_cast<std::size_t>(n) * n, 1);
  auto b = random_vec<T>(static_cast<std::size_t>(n) * n, 2);
  std::vector<T> c(static_cast<std::size_t>(n) * n, T(0));
  for (auto _ : state) {
    blas::ref::gemm(blas::Transpose::No, blas::Transpose::No, n, n, n, T(1),
                    a.data(), n, b.data(), n, T(0), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

static void BM_spmv(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto m = sparse::CsrMatrix<double>::random(n, n, 0.01, 1);
  auto x = random_vec<double>(static_cast<std::size_t>(n), 2);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    sparse::spmv_serial(m, 1.0, x.data(), 0.0, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m.nnz());
}

static void BM_getrf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a0 = random_vec<double>(static_cast<std::size_t>(n) * n, 3);
  for (int i = 0; i < n; ++i) a0[i + static_cast<std::size_t>(i) * n] += 4.0;
  std::vector<int> ipiv;
  for (auto _ : state) {
    auto a = a0;
    lapack::getrf(n, a.data(), n, ipiv);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n / 3);
}

/// One pivoting row interchange across the 512 columns of an ld-padded
/// f64 matrix (ld 520), as getrf notifies it. Arg 1: the matrix is
/// resident-clean, so every pair is mirrored; arg 0: nothing is tracked
/// there, so the swap must cost next to nothing.
void BM_residency_row_swap(benchmark::State& state) {
  constexpr std::int64_t kN = 512;
  constexpr std::int64_t kLd = 520;
  std::vector<double> a(static_cast<std::size_t>(kLd * kN));
  dispatch::ResidencyTracker tracker;
  if (state.range(0) != 0) {
    tracker.note_upload(
        dispatch::matrix_region(a.data(), sizeof(double), kLd, kN, kN));
  }
  const dispatch::Region row{a.data() + 3, sizeof(double),
                             sizeof(double) * kLd, kN};
  for (auto _ : state) {
    auto swap = tracker.note_host_swap(row, a.data() + 300);
    benchmark::DoNotOptimize(swap);
  }
  state.counters["intervals"] =
      static_cast<double>(tracker.interval_count());
  state.SetItemsProcessed(state.iterations() * kN);
}

/// A warm, ld-padded f64 GEMM (n = 96, ld = 104) through Dispatcher::run
/// under ResidencyPolicy::Track on isambard-ai, where it routes to the
/// GPU: plan, staging and the residency lookups and marks of one call.
/// Kernels run timing-only so the number is the dispatch layer's own.
void BM_residency_gpu_call(benchmark::State& state) {
  constexpr int kN = 96;
  constexpr int kLd = 104;
  dispatch::DispatcherConfig config;
  config.profile = profile::by_name("isambard-ai");
  config.residency = dispatch::ResidencyPolicy::Track;
  config.functional = false;
  dispatch::Dispatcher dispatcher(config);
  const auto size = static_cast<std::size_t>(kLd * kN);
  auto a = random_vec<double>(size, 4);
  auto b = random_vec<double>(size, 5);
  std::vector<double> c(size, 0.0);
  const dispatch::Call call = dispatch::Call::gemm<double>(
      blas::Transpose::No, blas::Transpose::No, kN, kN, kN, 1.0, a.data(),
      kLd, b.data(), kLd, 1.0, c.data(), kLd, dispatcher.effective_mode());
  dispatcher.run(call);  // warm the operands
  for (auto _ : state) {
    dispatcher.run(call);
    benchmark::DoNotOptimize(c.data());
  }
  const dispatch::DispatchStats stats = dispatcher.stats();
  state.counters["gpu_share"] = static_cast<double>(stats.gpu_routed) /
                                static_cast<double>(stats.calls);
}

BENCHMARK_TEMPLATE(BM_gemm, float)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK_TEMPLATE(BM_gemm, double)->Arg(64)->Arg(128)->Arg(256);
// Args: {m, n, k, threads}. Square at 1/2/4 threads, then the shapes the
// old N-split engine handled poorly: tall-skinny (huge m, tiny n — the
// paper's GEMV-adjacent regime) and small-N panels.
BENCHMARK_TEMPLATE(BM_gemm_parallel, double)
    ->Args({512, 512, 512, 1})
    ->Args({512, 512, 512, 2})
    ->Args({512, 512, 512, 4})
    ->Args({4096, 8, 512, 1})
    ->Args({4096, 8, 512, 4})
    ->Args({2048, 16, 256, 4})
    ->Args({8192, 4, 128, 4});
BENCHMARK_TEMPLATE(BM_gemm_parallel, float)
    ->Args({512, 512, 512, 4})
    ->Args({4096, 8, 512, 4});
// {n, trans_a, trans_b}: every transposed layout at one mid size, plus
// TN (the BLAS-idiomatic "A stored row-major" case) at a larger one.
BENCHMARK_TEMPLATE(BM_gemm_trans, float)
    ->Args({128, 1, 0})
    ->Args({128, 0, 1})
    ->Args({128, 1, 1})
    ->Args({256, 1, 0});
BENCHMARK_TEMPLATE(BM_gemm_trans, double)
    ->Args({128, 1, 0})
    ->Args({128, 0, 1})
    ->Args({128, 1, 1})
    ->Args({256, 1, 0});
BENCHMARK_TEMPLATE(BM_gemv, float)->Arg(256)->Arg(1024)->Arg(2048)->Arg(4096);
BENCHMARK_TEMPLATE(BM_gemv, double)->Arg(256)->Arg(1024)->Arg(2048);
// Transposed GEMV (y = A^T x): the strided-read kernel the GPU path now
// also exercises first-class.
BENCHMARK_TEMPLATE(BM_gemv_trans, float)->Arg(1024)->Arg(2048);
BENCHMARK_TEMPLATE(BM_gemv_trans, double)->Arg(1024)->Arg(2048);
// Scalar baseline at the same sizes: the serial SIMD engine is held to
// >= 2x over BM_gemv_scalar at the large sizes (1024/2048/4096).
BENCHMARK_TEMPLATE(BM_gemv_scalar, float)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096);
BENCHMARK_TEMPLATE(BM_gemv_scalar, double)->Arg(1024)->Arg(2048);
BENCHMARK_TEMPLATE(BM_gemv_reference, float)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096);
BENCHMARK_TEMPLATE(BM_gemv_reference, double)->Arg(256)->Arg(1024)->Arg(2048);
// {m, n, trans, threads}: square row-split scaling, then the tall-skinny
// transposed shapes that take the split-m partial-y reduction path.
BENCHMARK_TEMPLATE(BM_gemv_parallel, float)
    ->Args({4096, 4096, 0, 1})
    ->Args({4096, 4096, 0, 2})
    ->Args({4096, 4096, 0, 4})
    ->Args({32768, 8, 1, 1})
    ->Args({32768, 8, 1, 4});
BENCHMARK_TEMPLATE(BM_gemv_parallel, double)
    ->Args({2048, 2048, 0, 4})
    ->Args({32768, 8, 1, 1})
    ->Args({32768, 8, 1, 4})
    ->Args({65536, 4, 1, 4});
// {dim, batch, threads}: the coalesced small-GEMV payload.
BENCHMARK_TEMPLATE(BM_gemv_batched, float)
    ->Args({48, 256, 1})
    ->Args({48, 256, 4})
    ->Args({96, 128, 4});
BENCHMARK_TEMPLATE(BM_gemv_batched, double)
    ->Args({48, 256, 4})
    ->Args({96, 128, 4});
BENCHMARK_TEMPLATE(BM_dot, float)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_dot, double)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_axpy, float)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_axpy, double)->Arg(1 << 16);
BENCHMARK_TEMPLATE(BM_gemm_reference, double)->Arg(128);
BENCHMARK(BM_spmv)->Arg(4096)->Arg(16384);
BENCHMARK(BM_getrf)->Arg(128)->Arg(256);
BENCHMARK(BM_residency_row_swap)->Arg(0)->Arg(1);
BENCHMARK(BM_residency_gpu_call);

}  // namespace

BENCHMARK_MAIN();
