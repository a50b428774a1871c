// LU and Cholesky factorizations built on the BLAS, plus the dispatcher
// routing property: a factorization whose trailing updates flow through
// the offload dispatcher must reproduce the hook-free result bitwise and
// move strictly fewer modelled H2D bytes than a Transfer-Always run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "blas/gemm.hpp"
#include "blas/library.hpp"
#include "blas/ref_blas.hpp"
#include "blas_test_util.hpp"
#include "dispatch/dispatcher.hpp"
#include "lapack/geqrf.hpp"
#include "lapack/getrf.hpp"
#include "lapack/potrf.hpp"
#include "sysprofile/profile.hpp"

namespace {

using namespace blob;
using blob::test::random_vector;

/// Reconstruct P * A from LU factors and pivots: apply L * U then undo
/// the row interchanges in reverse.
template <typename T>
std::vector<T> reconstruct_from_lu(int n, const std::vector<T>& lu,
                                   const std::vector<int>& ipiv) {
  // Dense L (unit diagonal) and U from the packed factor.
  std::vector<T> l(static_cast<std::size_t>(n) * n, T(0));
  std::vector<T> u(static_cast<std::size_t>(n) * n, T(0));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const T v = lu[i + static_cast<std::size_t>(j) * n];
      if (i > j) {
        l[i + static_cast<std::size_t>(j) * n] = v;
      } else {
        u[i + static_cast<std::size_t>(j) * n] = v;
      }
    }
    l[j + static_cast<std::size_t>(j) * n] = T(1);
  }
  std::vector<T> product(static_cast<std::size_t>(n) * n, T(0));
  blas::gemm(blas::Transpose::No, blas::Transpose::No, n, n, n, T(1),
             l.data(), n, u.data(), n, T(0), product.data(), n);
  // product == P*A; undo the interchanges (reverse order) to get A.
  for (int i = n - 1; i >= 0; --i) {
    const int p = ipiv[static_cast<std::size_t>(i)];
    if (p != i) {
      for (int c = 0; c < n; ++c) {
        std::swap(product[i + static_cast<std::size_t>(c) * n],
                  product[p + static_cast<std::size_t>(c) * n]);
      }
    }
  }
  return product;
}

class GetrfSizes : public ::testing::TestWithParam<int> {};

TEST_P(GetrfSizes, LuTimesUReconstructsA) {
  const int n = GetParam();
  auto a = random_vector<double>(static_cast<std::size_t>(n) * n, 1);
  const auto original = a;
  std::vector<int> ipiv;
  lapack::getrf(n, a.data(), n, ipiv);
  const auto rebuilt = reconstruct_from_lu(n, a, ipiv);
  test::expect_near_rel(rebuilt, original, 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfSizes,
                         ::testing::Values(1, 2, 5, 17, 64, 65, 150, 257));

TEST(Getrf, SolvesLinearSystems) {
  const int n = 120, nrhs = 3;
  auto a = random_vector<double>(static_cast<std::size_t>(n) * n, 2);
  for (int i = 0; i < n; ++i) a[i + static_cast<std::size_t>(i) * n] += 2.0;
  const auto x_true = random_vector<double>(static_cast<std::size_t>(n) * nrhs, 3);
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs, 0.0);
  blas::gemm(blas::Transpose::No, blas::Transpose::No, n, nrhs, n, 1.0,
             a.data(), n, x_true.data(), n, 0.0, b.data(), n);
  lapack::gesv(n, nrhs, a.data(), n, b.data(), n);
  test::expect_near_rel(b, x_true, 1e-8);
}

TEST(Getrf, PivotingHandlesZeroDiagonal) {
  // [[0, 1], [1, 0]] requires a pivot; unpivoted LU would divide by 0.
  std::vector<double> a = {0.0, 1.0, 1.0, 0.0};
  std::vector<int> ipiv;
  lapack::getrf(2, a.data(), 2, ipiv);
  EXPECT_EQ(ipiv[0], 1);  // rows swapped
  std::vector<double> b = {3.0, 5.0};  // solve [[0,1],[1,0]] x = b
  lapack::getrs(2, 1, a.data(), 2, ipiv, b.data(), 2);
  EXPECT_NEAR(b[0], 5.0, 1e-14);
  EXPECT_NEAR(b[1], 3.0, 1e-14);
}

TEST(Getrf, ThrowsOnExactlySingular) {
  std::vector<double> a = {1.0, 2.0, 2.0, 4.0};  // rank 1
  std::vector<int> ipiv;
  EXPECT_THROW(lapack::getrf(2, a.data(), 2, ipiv),
               lapack::FactorizationError);
}

TEST(Getrf, SmallBlockMatchesLargeBlock) {
  const int n = 100;
  auto a1 = random_vector<double>(static_cast<std::size_t>(n) * n, 4);
  auto a2 = a1;
  std::vector<int> p1, p2;
  lapack::getrf(n, a1.data(), n, p1, nullptr, 1, /*block=*/8);
  lapack::getrf(n, a2.data(), n, p2, nullptr, 1, /*block=*/256);
  EXPECT_EQ(p1, p2);
  test::expect_near_rel(a1, a2, 1e-11);
}

TEST(Getrf, ThreadedMatchesSerial) {
  const int n = 200;
  parallel::ThreadPool pool(4);
  auto a1 = random_vector<float>(static_cast<std::size_t>(n) * n, 5);
  auto a2 = a1;
  std::vector<int> p1, p2;
  lapack::getrf(n, a1.data(), n, p1, nullptr, 1);
  lapack::getrf(n, a2.data(), n, p2, &pool, 4);
  EXPECT_EQ(p1, p2);
  test::expect_near_rel(a1, a2, 1e-4);
}

TEST(Getrf, RejectsBadArguments) {
  std::vector<double> a(4);
  std::vector<int> ipiv;
  EXPECT_THROW(lapack::getrf(-1, a.data(), 1, ipiv), blas::BlasError);
  EXPECT_THROW(lapack::getrf(4, a.data(), 2, ipiv), blas::BlasError);
  EXPECT_THROW(lapack::getrs(2, 1, a.data(), 2, {}, a.data(), 2),
               blas::BlasError);
}

// -------------------------------------------------------------- potrf

template <typename T>
std::vector<T> make_spd(int n, std::uint64_t seed) {
  // A = G * G^T + n * I is symmetric positive definite.
  auto g = random_vector<T>(static_cast<std::size_t>(n) * n, seed);
  std::vector<T> a(static_cast<std::size_t>(n) * n, T(0));
  blas::gemm(blas::Transpose::No, blas::Transpose::Yes, n, n, n, T(1),
             g.data(), n, g.data(), n, T(0), a.data(), n);
  for (int i = 0; i < n; ++i) {
    a[i + static_cast<std::size_t>(i) * n] += static_cast<T>(n);
  }
  return a;
}

class PotrfCase
    : public ::testing::TestWithParam<std::tuple<blas::UpLo, int>> {};

TEST_P(PotrfCase, FactorTimesTransposeReconstructsA) {
  auto [uplo, n] = GetParam();
  auto a = make_spd<double>(n, 6);
  const auto original = a;
  lapack::potrf(uplo, n, a.data(), n);

  // Zero the unfactored triangle, then form L*L^T or U^T*U.
  std::vector<double> f(static_cast<std::size_t>(n) * n, 0.0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const bool keep = uplo == blas::UpLo::Lower ? i >= j : i <= j;
      if (keep) {
        f[i + static_cast<std::size_t>(j) * n] =
            a[i + static_cast<std::size_t>(j) * n];
      }
    }
  }
  std::vector<double> rebuilt(static_cast<std::size_t>(n) * n, 0.0);
  if (uplo == blas::UpLo::Lower) {
    blas::gemm(blas::Transpose::No, blas::Transpose::Yes, n, n, n, 1.0,
               f.data(), n, f.data(), n, 0.0, rebuilt.data(), n);
  } else {
    blas::gemm(blas::Transpose::Yes, blas::Transpose::No, n, n, n, 1.0,
               f.data(), n, f.data(), n, 0.0, rebuilt.data(), n);
  }
  test::expect_near_rel(rebuilt, original, 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PotrfCase,
    ::testing::Combine(::testing::Values(blas::UpLo::Lower,
                                         blas::UpLo::Upper),
                       ::testing::Values(1, 3, 32, 100, 129)));

TEST(Potrf, SolvesSpdSystem) {
  const int n = 90, nrhs = 2;
  auto a = make_spd<double>(n, 7);
  const auto x_true = random_vector<double>(static_cast<std::size_t>(n) * nrhs, 8);
  std::vector<double> b(static_cast<std::size_t>(n) * nrhs, 0.0);
  blas::gemm(blas::Transpose::No, blas::Transpose::No, n, nrhs, n, 1.0,
             a.data(), n, x_true.data(), n, 0.0, b.data(), n);
  lapack::potrf(blas::UpLo::Lower, n, a.data(), n);
  lapack::potrs(blas::UpLo::Lower, n, nrhs, a.data(), n, b.data(), n);
  test::expect_near_rel(b, x_true, 1e-9);
}

TEST(Potrf, ThrowsOnIndefiniteMatrix) {
  std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_THROW(lapack::potrf(blas::UpLo::Lower, 2, a.data(), 2),
               lapack::FactorizationError);
}

TEST(Potrf, AgreesWithGetrfSolution) {
  const int n = 64;
  auto a = make_spd<double>(n, 9);
  auto a_lu = a;
  auto x_chol = random_vector<double>(static_cast<std::size_t>(n), 10);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  blas::ref::gemv(blas::Transpose::No, n, n, 1.0, a.data(), n, x_chol.data(),
                  1, 0.0, b.data(), 1);
  auto b_lu = b;

  lapack::potrf(blas::UpLo::Lower, n, a.data(), n);
  lapack::potrs(blas::UpLo::Lower, n, 1, a.data(), n, b.data(), n);
  lapack::gesv(n, 1, a_lu.data(), n, b_lu.data(), n);
  test::expect_near_rel(b, b_lu, 1e-9);
}

// -------------------------------------------------------------- geqrf

/// Materialise Q (m x n thin) by applying the reflectors to the identity
/// via Q = H_0 H_1 ... H_{n-1} I_{m x n}; we get Q column-by-column from
/// Q^T's transpose trick: apply Q^T to e_i and transpose. Simpler: check
/// A = Q R via ||Q^T A - R|| and orthogonality ||Q^T Q - I|| using
/// ormqr_qt on copies of the original A.
class GeqrfSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GeqrfSizes, QtAEqualsR) {
  auto [m, n] = GetParam();
  auto a0 = random_vector<double>(static_cast<std::size_t>(m) * n, 20);
  auto qr = a0;
  std::vector<double> tau;
  lapack::geqrf(m, n, qr.data(), m, tau);

  // Q^T * A must equal the R stored in qr's upper triangle.
  auto qta = a0;
  lapack::ormqr_qt(m, n, n, qr.data(), m, tau, qta.data(), m);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const double expected =
          i <= j && i < n ? qr[i + static_cast<std::size_t>(j) * m] : 0.0;
      ASSERT_NEAR(qta[i + static_cast<std::size_t>(j) * m], expected,
                  1e-10 * (1.0 + std::fabs(expected)))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(GeqrfSizes, QIsOrthogonal) {
  auto [m, n] = GetParam();
  auto a0 = random_vector<double>(static_cast<std::size_t>(m) * n, 21);
  auto qr = a0;
  std::vector<double> tau;
  lapack::geqrf(m, n, qr.data(), m, tau);

  // Apply Q^T to the m x m identity: rows 0..m of Q^T; then (Q^T)(Q^T)^T
  // = I iff Q orthogonal. Cheaper: Q^T applied to identity gives Qt;
  // check Qt's rows are orthonormal via Qt * Qt^T == I.
  std::vector<double> qt(static_cast<std::size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) qt[i + static_cast<std::size_t>(i) * m] = 1.0;
  lapack::ormqr_qt(m, n, m, qr.data(), m, tau, qt.data(), m);
  std::vector<double> prod(static_cast<std::size_t>(m) * m, 0.0);
  blas::gemm(blas::Transpose::No, blas::Transpose::Yes, m, m, m, 1.0,
             qt.data(), m, qt.data(), m, 0.0, prod.data(), m);
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < m; ++i) {
      ASSERT_NEAR(prod[i + static_cast<std::size_t>(j) * m],
                  i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeqrfSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{5, 3},
                                           std::pair{16, 16},
                                           std::pair{40, 25},
                                           std::pair{100, 60}));

TEST(Gels, RecoversExactSolutionOfConsistentSystem) {
  const int m = 50, n = 20;
  auto a = random_vector<double>(static_cast<std::size_t>(m) * n, 22);
  auto x_true = random_vector<double>(static_cast<std::size_t>(n), 23);
  std::vector<double> b(static_cast<std::size_t>(m), 0.0);
  blas::ref::gemv(blas::Transpose::No, m, n, 1.0, a.data(), m, x_true.data(),
                  1, 0.0, b.data(), 1);
  lapack::gels(m, n, 1, a.data(), m, b.data(), m);
  for (int i = 0; i < n; ++i) {
    ASSERT_NEAR(b[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Gels, LeastSquaresResidualIsOrthogonalToColumns) {
  // For noisy b, the residual r = b - A x* must satisfy A^T r = 0.
  const int m = 60, n = 10;
  auto a0 = random_vector<double>(static_cast<std::size_t>(m) * n, 24);
  auto b0 = random_vector<double>(static_cast<std::size_t>(m), 25);
  auto a = a0;
  auto b = b0;
  lapack::gels(m, n, 1, a.data(), m, b.data(), m);
  // r = b0 - A0 * x.
  std::vector<double> r = b0;
  blas::ref::gemv(blas::Transpose::No, m, n, -1.0, a0.data(), m, b.data(), 1,
                  1.0, r.data(), 1);
  std::vector<double> atr(static_cast<std::size_t>(n), 0.0);
  blas::ref::gemv(blas::Transpose::Yes, m, n, 1.0, a0.data(), m, r.data(), 1,
                  0.0, atr.data(), 1);
  for (double v : atr) ASSERT_NEAR(v, 0.0, 1e-9);
}

TEST(Geqrf, RejectsWideMatrices) {
  std::vector<double> a(6);
  std::vector<double> tau;
  EXPECT_THROW(lapack::geqrf(2, 3, a.data(), 2, tau), blas::BlasError);
}

// -------------------------------- dispatcher routing (bitwise identity)

/// Dispatcher whose CPU route runs the exact serial kernel the hook-free
/// blas:: path runs (single-thread personality, one worker), so routing
/// decisions can reprice calls but never perturb bits.
dispatch::DispatcherConfig factor_config(const std::string& profile_name) {
  dispatch::DispatcherConfig cfg;
  cfg.profile = profile::by_name(profile_name);
  cfg.personality = blas::single_thread_personality();
  cfg.cpu_threads = 1;
  cfg.autotune = false;
  cfg.mode = core::TransferMode::Once;
  cfg.residency = dispatch::ResidencyPolicy::Track;
  return cfg;
}

/// Scatter a tightly stored rows x cols matrix into an ld-padded buffer
/// whose padding rows hold deterministic junk — routed and hook-free runs
/// must agree on every byte including the untouched padding.
template <typename T>
std::vector<T> pad_columns(const std::vector<T>& tight, int rows, int cols,
                           int ld, std::uint64_t seed) {
  auto padded = random_vector<T>(static_cast<std::size_t>(ld) * cols, seed);
  for (int j = 0; j < cols; ++j) {
    std::copy(tight.begin() + static_cast<std::size_t>(j) * rows,
              tight.begin() + static_cast<std::size_t>(j + 1) * rows,
              padded.begin() + static_cast<std::size_t>(j) * ld);
  }
  return padded;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& got, const std::vector<T>& ref,
                          const char* what) {
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(T) * got.size()), 0)
      << what << " differs from the hook-free reference";
}

class LapackDispatchProfiles
    : public ::testing::TestWithParam<std::string> {};

TEST_P(LapackDispatchProfiles, GetrfRoutedMatchesHookFreeBitwise) {
  const int n = 128, lda = n + 7, block = 32;
  const auto tight =
      random_vector<double>(static_cast<std::size_t>(n) * n, 31);
  auto ref = pad_columns(tight, n, n, lda, 131);
  auto got = ref;
  std::vector<int> p_ref, p_got;
  lapack::getrf(n, ref.data(), lda, p_ref, nullptr, 1, block);

  dispatch::Dispatcher disp(factor_config(GetParam()));
  disp.install();
  lapack::getrf(n, got.data(), lda, p_got, nullptr, 1, block);
  disp.uninstall();

  EXPECT_EQ(p_ref, p_got);
  expect_bitwise_equal(got, ref, "getrf factor");
}

TEST_P(LapackDispatchProfiles, PotrfRoutedMatchesHookFreeBitwise) {
  const int n = 144, lda = n + 7, block = 32;
  const auto spd = make_spd<double>(n, 32);
  auto ref = pad_columns(spd, n, n, lda, 132);
  auto got = ref;
  lapack::potrf(blas::UpLo::Lower, n, ref.data(), lda, nullptr, 1, block);

  dispatch::Dispatcher disp(factor_config(GetParam()));
  disp.install();
  lapack::potrf(blas::UpLo::Lower, n, got.data(), lda, nullptr, 1, block);
  disp.uninstall();

  expect_bitwise_equal(got, ref, "potrf factor");
}

TEST_P(LapackDispatchProfiles, GeqrfRoutedMatchesHookFreeBitwise) {
  const int m = 160, n = 96, lda = m + 7;
  const auto tight =
      random_vector<double>(static_cast<std::size_t>(m) * n, 33);
  auto ref = pad_columns(tight, m, n, lda, 133);
  auto got = ref;
  std::vector<double> tau_ref, tau_got;
  lapack::geqrf(m, n, ref.data(), lda, tau_ref, nullptr, 1);

  dispatch::Dispatcher disp(factor_config(GetParam()));
  disp.install();
  lapack::geqrf(m, n, got.data(), lda, tau_got, nullptr, 1);
  disp.uninstall();

  ASSERT_EQ(tau_got.size(), tau_ref.size());
  EXPECT_EQ(std::memcmp(tau_got.data(), tau_ref.data(),
                        sizeof(double) * tau_ref.size()),
            0);
  expect_bitwise_equal(got, ref, "geqrf factor");
}

INSTANTIATE_TEST_SUITE_P(Profiles, LapackDispatchProfiles,
                         ::testing::Values("dawn", "lumi", "isambard-ai"));

TEST(LapackDispatch, GetrfSkipsResidentPanelDmaAboveThreshold) {
  // Above the offload threshold the trailing updates route to the GPU,
  // and because their results are resident-clean once joined, the
  // dispatched run must charge strictly fewer H2D bytes than a
  // Transfer-Always run of the same GPU-routed calls would.
  const int n = 512, block = 64;
  auto a = random_vector<double>(static_cast<std::size_t>(n) * n, 34);
  std::vector<int> ipiv;

  dispatch::Dispatcher disp(factor_config("isambard-ai"));
  disp.install();
  lapack::getrf(n, a.data(), n, ipiv, nullptr, 1, block);
  disp.uninstall();

  const dispatch::DispatchStats stats = disp.stats();
  double transfer_always_bytes = 0.0;
  std::uint64_t gpu_records = 0;
  for (const auto& r : disp.trace().snapshot()) {
    if (r.route != dispatch::Route::Gpu) continue;
    ++gpu_records;
    // A (m x k), B (k x n) and C (m x n, beta == 1 so it uploads too).
    const auto m_ = static_cast<double>(r.m);
    const auto n_ = static_cast<double>(r.n);
    const auto k_ = static_cast<double>(r.k);
    transfer_always_bytes += sizeof(double) * (m_ * k_ + k_ * n_ + m_ * n_);
  }
  ASSERT_GT(gpu_records, 0U) << "no trailing update offloaded";
  EXPECT_GT(stats.h2d_bytes_skipped, 0.0);
  EXPECT_LT(stats.h2d_bytes_moved, transfer_always_bytes);
  EXPECT_GT(stats.residency_hits, 0U);
}

}  // namespace
