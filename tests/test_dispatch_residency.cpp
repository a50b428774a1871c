// The residency subsystem: the pointer-interval map against a per-byte
// reference model (randomized overlap splitting, write invalidation,
// aliased intervals, row interchanges), one-pass row swaps against the
// pair-by-pair reference, the region span helpers, the v2 -> v3 calibration
// migration, and the dispatcher-level property the tentpole is
// accountable to — a repeated-A GEMV loop under ResidencyPolicy::Track
// produces bitwise-identical results to a Transfer-Always run while
// moving strictly fewer modelled H2D bytes, offloading within the
// amortisation horizon, and never re-charging DMA for resident-clean
// operands.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "blas/cblas.hpp"
#include "dispatch/calibration_store.hpp"
#include "dispatch/dispatcher.hpp"
#include "dispatch/residency.hpp"
#include "sysprofile/profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace blob;
using dispatch::Region;
using dispatch::ResidencyTracker;

// Synthetic arena addresses: the tracker never dereferences, so tests
// can use a fake base pointer and byte offsets.
const char* const kBase = reinterpret_cast<const char*>(0x100000);

Region region_at(std::size_t offset, std::size_t bytes) {
  return Region{kBase + offset, bytes};
}

// ----------------------------------------------- per-byte reference

/// Reference semantics over a small arena: one state per byte. The
/// tracker must agree with this model on every clean lookup, and its
/// interval count must equal the model's maximal equal-state runs
/// (coalescing adjacent same-state intervals, splitting on erase).
class ByteModel {
 public:
  enum State : std::uint8_t { None, Clean, Dirty };

  explicit ByteModel(std::size_t arena) : bytes_(arena, None) {}

  void set(std::size_t offset, std::size_t n, State s) {
    for (std::size_t i = offset; i < offset + n; ++i) bytes_[i] = s;
  }

  [[nodiscard]] bool all_clean(std::size_t offset, std::size_t n) const {
    for (std::size_t i = offset; i < offset + n; ++i) {
      if (bytes_[i] != Clean) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t runs() const { return runs_in(0, bytes_.size()); }

  /// Maximal equal-state runs meeting [offset, offset + n): the intervals
  /// a host write of that range invalidates.
  [[nodiscard]] std::size_t runs_in(std::size_t offset, std::size_t n) const {
    std::size_t count = 0;
    for (std::size_t i = offset; i < offset + n; ++i) {
      if (bytes_[i] != None && (i == offset || bytes_[i] != bytes_[i - 1])) {
        ++count;
      }
    }
    return count;
  }

  /// Row interchange, pair by pair: a pair of all-clean chunks is
  /// mirrored, any other pair is a host write of both chunks.
  ResidencyTracker::SwapResult swap(std::size_t a, std::size_t b,
                                    std::size_t bytes, std::size_t stride,
                                    std::size_t count) {
    ResidencyTracker::SwapResult result;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t ca = a + i * stride;
      const std::size_t cb = b + i * stride;
      if (all_clean(ca, bytes) && all_clean(cb, bytes)) {
        ++result.mirrored;
        continue;
      }
      result.invalidated += runs_in(ca, bytes);
      set(ca, bytes, None);
      result.invalidated += runs_in(cb, bytes);
      set(cb, bytes, None);
    }
    return result;
  }

 private:
  std::vector<State> bytes_;
};

TEST(ResidencyTracker, RandomOpsAgreeWithByteModel) {
  constexpr std::size_t kArena = 512;
  util::Xoshiro256 rng(0x5eed);
  ResidencyTracker tracker;
  ByteModel model(kArena);

  for (int step = 0; step < 2000; ++step) {
    const auto offset =
        static_cast<std::size_t>(rng.uniform_int(0, kArena - 1));
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<int>(kArena - offset)));
    const Region r = region_at(offset, len);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        tracker.note_upload(r);
        model.set(offset, len, ByteModel::Clean);
        break;
      case 1:
        tracker.note_device_write(r);
        model.set(offset, len, ByteModel::Dirty);
        break;
      case 2:
        tracker.note_device_result(r);
        model.set(offset, len, ByteModel::Clean);
        break;
      case 3:
        ASSERT_EQ(tracker.note_host_write(r), model.runs_in(offset, len))
            << "step " << step;
        model.set(offset, len, ByteModel::None);
        break;
      default: {
        // Row swap: two same-shaped strided rows, overlapping now and
        // then (stride below the chunk size, or rows closer than a chunk).
        const auto bytes = static_cast<std::size_t>(rng.uniform_int(1, 16));
        const auto count = static_cast<std::size_t>(rng.uniform_int(1, 8));
        const auto stride = static_cast<std::size_t>(rng.uniform_int(0, 64));
        const std::size_t span = (count - 1) * stride + bytes;
        const auto a = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kArena - span)));
        const auto b = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kArena - span)));
        const ResidencyTracker::SwapResult got =
            tracker.note_host_swap(Region{kBase + a, bytes, stride, count},
                                   kBase + b);
        const ResidencyTracker::SwapResult want =
            model.swap(a, b, bytes, stride, count);
        ASSERT_EQ(got.mirrored, want.mirrored) << "step " << step;
        ASSERT_EQ(got.invalidated, want.invalidated) << "step " << step;
        break;
      }
    }

    ASSERT_EQ(tracker.interval_count(), model.runs()) << "step " << step;
    for (int probe = 0; probe < 8; ++probe) {
      const auto po =
          static_cast<std::size_t>(rng.uniform_int(0, kArena - 1));
      const auto pl = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<int>(kArena - po)));
      ASSERT_EQ(tracker.resident_clean(region_at(po, pl)),
                model.all_clean(po, pl))
          << "step " << step << " probe [" << po << ", " << po + pl << ")";
    }
    // Strided probes walk the map with one cursor across chunks.
    for (int probe = 0; probe < 4; ++probe) {
      const auto bytes = static_cast<std::size_t>(rng.uniform_int(1, 32));
      const auto count = static_cast<std::size_t>(rng.uniform_int(1, 6));
      const auto stride = static_cast<std::size_t>(rng.uniform_int(0, 96));
      const std::size_t span = (count - 1) * stride + bytes;
      const auto po = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(kArena - span)));
      bool want = true;
      for (std::size_t i = 0; i < count; ++i) {
        want = want && model.all_clean(po + i * stride, bytes);
      }
      ASSERT_EQ(tracker.resident_clean(Region{kBase + po, bytes, stride,
                                              count}),
                want)
          << "step " << step << " strided probe at " << po;
    }
  }
}

TEST(ResidencyTracker, HostWriteSplitsCleanInterval) {
  ResidencyTracker tracker;
  tracker.note_upload(region_at(0, 100));
  EXPECT_EQ(tracker.interval_count(), 1U);

  // A write in the middle kills only the overlapped bytes; both
  // remainders stay clean.
  EXPECT_EQ(tracker.note_host_write(region_at(40, 20)), 1U);
  EXPECT_EQ(tracker.interval_count(), 2U);
  EXPECT_TRUE(tracker.resident_clean(region_at(0, 40)));
  EXPECT_TRUE(tracker.resident_clean(region_at(60, 40)));
  EXPECT_FALSE(tracker.resident_clean(region_at(30, 40)));
  EXPECT_FALSE(tracker.resident_clean(region_at(0, 100)));
}

TEST(ResidencyTracker, AdjacentUploadsCoalesce) {
  ResidencyTracker tracker;
  tracker.note_upload(region_at(0, 50));
  tracker.note_upload(region_at(50, 50));
  EXPECT_EQ(tracker.interval_count(), 1U);
  EXPECT_TRUE(tracker.resident_clean(region_at(0, 100)));
  // A gap breaks coverage: [0,100) + [120,140) is not clean over
  // [90, 130).
  tracker.note_upload(region_at(120, 20));
  EXPECT_FALSE(tracker.resident_clean(region_at(90, 40)));
}

TEST(ResidencyTracker, DirtyBytesNeverSatisfyCleanLookups) {
  ResidencyTracker tracker;
  tracker.note_upload(region_at(0, 100));
  tracker.note_device_write(region_at(20, 10));
  EXPECT_FALSE(tracker.resident_clean(region_at(0, 100)));
  EXPECT_TRUE(tracker.resident_clean(region_at(0, 20)));
  EXPECT_TRUE(tracker.resident_clean(region_at(30, 70)));
  tracker.note_device_result(region_at(20, 10));
  EXPECT_TRUE(tracker.resident_clean(region_at(0, 100)));
  EXPECT_EQ(tracker.interval_count(), 1U);
}

TEST(ResidencyTracker, AliasedIntervalsShareState) {
  // Two operand views aliasing the same bytes (e.g. a submatrix): an
  // upload through either view warms the shared bytes; a host write
  // through one invalidates the other's overlap.
  ResidencyTracker tracker;
  const Region whole = region_at(0, 200);
  const Region lower = region_at(0, 120);
  const Region upper = region_at(80, 120);
  tracker.note_upload(lower);
  tracker.note_upload(upper);
  EXPECT_TRUE(tracker.resident_clean(whole));
  EXPECT_EQ(tracker.interval_count(), 1U);

  EXPECT_EQ(tracker.note_host_write(region_at(100, 10)), 1U);
  EXPECT_FALSE(tracker.resident_clean(lower));
  EXPECT_FALSE(tracker.resident_clean(upper));
  EXPECT_TRUE(tracker.resident_clean(region_at(0, 100)));
  EXPECT_TRUE(tracker.resident_clean(region_at(110, 90)));
}

// ----------------------------------------------- row interchanges

/// The pair-by-pair interchange through the public lookups: one clean
/// check per chunk, one host write per chunk of a non-mirrored pair.
ResidencyTracker::SwapResult swap_per_column(ResidencyTracker& tracker,
                                             const Region& a,
                                             const void* b) {
  ResidencyTracker::SwapResult result;
  for (std::size_t i = 0; i < a.count; ++i) {
    const Region ca{static_cast<const char*>(a.ptr) + i * a.stride, a.bytes};
    const Region cb{static_cast<const char*>(b) + i * a.stride, a.bytes};
    if (tracker.resident_clean(ca) && tracker.resident_clean(cb)) {
      ++result.mirrored;
      continue;
    }
    result.invalidated += tracker.note_host_write(ca);
    result.invalidated += tracker.note_host_write(cb);
  }
  return result;
}

// A 6 x 5 f64 matrix stored with ld 10: 48-byte column chunks, 80 apart.
constexpr std::size_t kElem = 8;
constexpr std::int64_t kLd = 10;
constexpr std::int64_t kRows = 6;
constexpr std::int64_t kCols = 5;

Region padded_matrix(const void* base) {
  return dispatch::matrix_region(base, kElem, kLd, kRows, kCols);
}

/// Row `r` of the padded matrix: one element per column.
Region padded_row(const void* base, std::int64_t r) {
  return Region{static_cast<const char*>(base) + kElem * r, kElem,
                kElem * kLd, kCols};
}

const void* row_ptr(const void* base, std::int64_t r) {
  return static_cast<const char*>(base) + kElem * r;
}

/// Every element of the padded matrix (plus its padding) is clean in
/// `got` exactly where it is clean in `want`.
void expect_same_elements(const ResidencyTracker& got,
                          const ResidencyTracker& want, const void* base) {
  for (std::int64_t j = 0; j < kCols; ++j) {
    for (std::int64_t i = 0; i < kLd; ++i) {
      const Region e{static_cast<const char*>(base) + kElem * (j * kLd + i),
                     kElem};
      EXPECT_EQ(got.resident_clean(e), want.resident_clean(e))
          << "row " << i << " column " << j;
    }
  }
  EXPECT_EQ(got.interval_count(), want.interval_count());
}

TEST(ResidencySwap, CleanRowsMirrorEveryPairAndKeepTheMap) {
  ResidencyTracker tracker;
  tracker.note_upload(padded_matrix(kBase));
  ASSERT_EQ(tracker.interval_count(), 5U);
  const ResidencyTracker before = tracker;

  const ResidencyTracker::SwapResult swap =
      tracker.note_host_swap(padded_row(kBase, 1), row_ptr(kBase, 4));
  EXPECT_EQ(swap.mirrored, 5U);
  EXPECT_EQ(swap.invalidated, 0U);
  EXPECT_TRUE(tracker.resident_clean(padded_matrix(kBase)));
  expect_same_elements(tracker, before, kBase);
}

TEST(ResidencySwap, PartlyResidentRowLosesOnlyOverlappedChunks) {
  ResidencyTracker tracker;
  tracker.note_upload(padded_matrix(kBase));
  // Row 4 loses its element in columns 1 and 3: those pairs cannot be
  // mirrored, so row 1's element there is invalidated too.
  for (const std::int64_t j : {1, 3}) {
    ASSERT_EQ(tracker.note_host_write(Region{
                  kBase + kElem * (j * kLd + 4), kElem}),
              1U);
  }
  ResidencyTracker reference = tracker;

  const ResidencyTracker::SwapResult swap =
      tracker.note_host_swap(padded_row(kBase, 1), row_ptr(kBase, 4));
  const ResidencyTracker::SwapResult want =
      swap_per_column(reference, padded_row(kBase, 1), row_ptr(kBase, 4));
  EXPECT_EQ(swap.mirrored, 3U);
  EXPECT_EQ(swap.invalidated, 2U);  // row 1's chunks; row 4's are gone
  EXPECT_EQ(swap.mirrored, want.mirrored);
  EXPECT_EQ(swap.invalidated, want.invalidated);
  expect_same_elements(tracker, reference, kBase);
  for (std::int64_t j = 0; j < kCols; ++j) {
    const bool kept = j != 1 && j != 3;
    EXPECT_EQ(tracker.resident_clean(
                  Region{kBase + kElem * (j * kLd + 1), kElem}),
              kept)
        << "column " << j;
  }
}

TEST(ResidencySwap, UntrackedRowsAreANoOp) {
  ResidencyTracker empty;
  const ResidencyTracker::SwapResult none =
      empty.note_host_swap(padded_row(kBase, 0), row_ptr(kBase, 5));
  EXPECT_EQ(none.mirrored, 0U);
  EXPECT_EQ(none.invalidated, 0U);
  EXPECT_EQ(empty.interval_count(), 0U);

  // Another matrix is tracked; swapping rows of this one leaves it be.
  ResidencyTracker tracker;
  const char* other = kBase + 4096;
  tracker.note_upload(padded_matrix(other));
  const ResidencyTracker before = tracker;
  const ResidencyTracker::SwapResult swap =
      tracker.note_host_swap(padded_row(kBase, 0), row_ptr(kBase, 5));
  EXPECT_EQ(swap.mirrored, 0U);
  EXPECT_EQ(swap.invalidated, 0U);
  expect_same_elements(tracker, before, other);
}

TEST(ResidencySwap, OverlappingRowsMatchPerColumnOrder) {
  // Rows whose chunks overlap (here: a row swapped with itself shifted
  // by half a chunk) see each pair's invalidation before the next pair.
  ResidencyTracker tracker;
  tracker.note_upload(region_at(0, 400));
  tracker.note_host_write(region_at(100, 8));
  ResidencyTracker reference = tracker;
  const Region row{kBase, 16, 40, 8};
  const ResidencyTracker::SwapResult swap =
      tracker.note_host_swap(row, kBase + 8);
  const ResidencyTracker::SwapResult want =
      swap_per_column(reference, row, kBase + 8);
  EXPECT_EQ(swap.mirrored, want.mirrored);
  EXPECT_EQ(swap.invalidated, want.invalidated);
  EXPECT_EQ(tracker.interval_count(), reference.interval_count());
  for (std::size_t off = 0; off < 400; off += 4) {
    EXPECT_EQ(tracker.resident_clean(region_at(off, 4)),
              reference.resident_clean(region_at(off, 4)))
        << "offset " << off;
  }
}

// ----------------------------------------------- region span helpers

TEST(ResidencyRegions, MatrixRegionChunksPerColumnWhenPadded) {
  // 8-byte elements, ld 10, 6 x 4 stored: one 48-byte chunk per column,
  // stride elem * ld, so the 4 rows of ld padding per column stay out of
  // the tracked footprint.
  const Region r = dispatch::matrix_region(kBase, 8, 10, 6, 4);
  EXPECT_EQ(r.ptr, kBase);
  EXPECT_EQ(r.bytes, 8U * 6U);
  EXPECT_EQ(r.stride, 8U * 10U);
  EXPECT_EQ(r.count, 4U);
  EXPECT_EQ(r.total_bytes(), 8U * 6U * 4U);
  // Tight storage (ld == rows, including ld-below-rows clamping) stays
  // one contiguous chunk.
  const Region tight = dispatch::matrix_region(kBase, 4, 2, 6, 4);
  EXPECT_EQ(tight.bytes, 4U * 6U * 4U);
  EXPECT_EQ(tight.count, 1U);
  EXPECT_FALSE(dispatch::matrix_region(nullptr, 8, 10, 6, 4).valid());
  EXPECT_FALSE(dispatch::matrix_region(kBase, 8, 10, 0, 4).valid());
}

TEST(ResidencyRegions, PaddedMatrixUploadLeavesPaddingUntracked) {
  // Warming a padded panel must not claim the inter-column padding: a
  // byte-interleaved neighbour (e.g. the panel to the right in a larger
  // factorization) would otherwise be marked clean without an upload.
  ResidencyTracker tracker;
  const Region panel = dispatch::matrix_region(kBase, 8, 10, 6, 4);
  tracker.note_upload(panel);
  EXPECT_EQ(tracker.interval_count(), 4U);
  EXPECT_TRUE(tracker.resident_clean(panel));
  for (std::size_t col = 0; col < 4; ++col) {
    EXPECT_TRUE(tracker.resident_clean(region_at(col * 80, 48)));
    EXPECT_FALSE(tracker.resident_clean(region_at(col * 80 + 48, 32)))
        << "padding after column " << col << " wrongly tracked";
  }

  // A host write through the same chunked shape kills every column but
  // leaves unrelated bytes alone.
  ResidencyTracker other;
  other.note_upload(region_at(0, 400));
  EXPECT_EQ(other.note_host_write(panel), 4U);
  EXPECT_FALSE(other.resident_clean(panel));
  EXPECT_TRUE(other.resident_clean(region_at(48, 32)));
  EXPECT_TRUE(other.resident_clean(region_at(320, 80)));
}

TEST(ResidencyRegions, VectorSpanFollowsStride) {
  const Region unit = dispatch::vector_region(kBase, 8, 100, 1);
  EXPECT_EQ(unit.bytes, 800U);
  const Region strided = dispatch::vector_region(kBase, 4, 10, 3);
  EXPECT_EQ(strided.bytes, 4U * ((10 - 1) * 3 + 1));
  EXPECT_FALSE(dispatch::vector_region(kBase, 8, 0, 1).valid());
}

// ----------------------------------------------- calibration v2 -> v3

TEST(ResidencyCalibration, V2StoreReadsGracefullyOntoColdSide) {
  const std::string v2 = R"({
    "version": 2,
    "personality": "p",
    "profile": "s",
    "entries": [
      {"op": "gemv", "precision": "f64", "mode": "once", "bucket": 7,
       "ta": "N", "tb": "N",
       "cpu": {"ewma_s": 1e-4, "samples": 3},
       "gpu": {"ewma_s": 2e-4, "samples": 2},
       "incumbent": "cpu", "visits": 5, "switches": 0}
    ]
  })";
  std::istringstream in(v2);
  const dispatch::LoadResult result = dispatch::load_calibration(in, "p", "s");
  ASSERT_EQ(result.status, dispatch::LoadStatus::Ok);
  EXPECT_FALSE(result.warning.empty());
  ASSERT_EQ(result.data.entries.size(), 1U);
  const auto& [key, state] = *result.data.entries.begin();
  EXPECT_EQ(key.residency, dispatch::ResidencyClass::Cold);
  EXPECT_EQ(key.bucket, 7);
  EXPECT_EQ(state.cpu.samples, 3U);
}

TEST(ResidencyCalibration, V3RoundTripPreservesResidencyClass) {
  dispatch::CalibrationData data;
  data.personality = "p";
  data.profile = "s";
  dispatch::BucketKey key;
  key.op = core::KernelOp::Gemv;
  key.precision = model::Precision::F64;
  key.bucket = 9;
  key.residency = dispatch::ResidencyClass::Warm;
  dispatch::BucketState state;
  state.gpu.ewma_s = 5e-5;
  state.gpu.samples = 4;
  state.incumbent = dispatch::Route::Gpu;
  data.entries.emplace(key, state);

  std::ostringstream out;
  dispatch::save_calibration(out, data);
  std::istringstream in(out.str());
  const dispatch::LoadResult result = dispatch::load_calibration(in, "p", "s");
  ASSERT_EQ(result.status, dispatch::LoadStatus::Ok);
  EXPECT_TRUE(result.warning.empty());
  ASSERT_EQ(result.data.entries.size(), 1U);
  EXPECT_EQ(result.data.entries.begin()->first.residency,
            dispatch::ResidencyClass::Warm);
}

TEST(ResidencyCalibration, PreV2StillRejected) {
  std::istringstream in(
      R"({"version": 1, "personality": "p", "profile": "s", "entries": []})");
  EXPECT_EQ(dispatch::load_calibration(in, "p", "s").status,
            dispatch::LoadStatus::VersionMismatch);
}

// ------------------------------------- dispatcher repeated-A property

dispatch::DispatcherConfig solver_config(dispatch::ResidencyPolicy policy,
                                         core::TransferMode mode) {
  dispatch::DispatcherConfig cfg;
  // GH200-class profile: steep GEMV offload curve once resident, so the
  // loop exercises the threshold collapse the tentpole is about.
  cfg.profile = profile::by_name("isambard-ai");
  // Single-thread personality: the CPU route runs the exact serial
  // kernel SimGpu's functional path runs, so CPU- and GPU-routed
  // iterations agree bitwise and route flips cannot perturb results.
  cfg.personality = blas::single_thread_personality();
  cfg.cpu_threads = 1;
  cfg.autotune = false;
  cfg.mode = mode;
  cfg.residency = policy;
  return cfg;
}

/// Run `iters` power-iteration steps (repeated A, x fed from y) through
/// an installed dispatcher; returns every iterate for bitwise
/// comparison.
std::vector<std::vector<double>> run_solver_loop(
    dispatch::Dispatcher& dispatcher, int dim, int iters) {
  const auto nn = static_cast<std::size_t>(dim);
  std::vector<double> a(nn * nn), x(nn), y(nn, 0.0);
  util::Xoshiro256 rng(0x50f7);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  std::vector<std::vector<double>> iterates;
  dispatcher.install();
  for (int it = 0; it < iters; ++it) {
    cblas_dgemv(CblasColMajor, CblasNoTrans, dim, dim, 1.0, a.data(), dim,
                x.data(), 1, 0.0, y.data(), 1);
    iterates.push_back(y);
    double norm = 0.0;
    for (const double v : y) norm = std::max(norm, std::abs(v));
    if (norm == 0.0) norm = 1.0;
    for (std::size_t i = 0; i < nn; ++i) x[i] = y[i] / norm;
  }
  dispatcher.uninstall();
  return iterates;
}

TEST(ResidencyDispatch, RepeatedAGemvMovesFewerBytesBitIdentically) {
  constexpr int kDim = 1024;
  constexpr int kIters = 16;

  // Baseline: residency off, Transfer-Always — every GPU call pays the
  // full upload.
  dispatch::Dispatcher baseline(solver_config(
      dispatch::ResidencyPolicy::Off, core::TransferMode::Always));
  const auto ref = run_solver_loop(baseline, kDim, kIters);
  const dispatch::DispatchStats base_stats = baseline.stats();

  dispatch::Dispatcher tracked(solver_config(
      dispatch::ResidencyPolicy::Track, core::TransferMode::Once));
  const auto got = run_solver_loop(tracked, kDim, kIters);
  const dispatch::DispatchStats track_stats = tracked.stats();

  // Bitwise-identical iterates: residency affects pricing, never
  // numerics.
  ASSERT_EQ(got.size(), ref.size());
  for (int it = 0; it < kIters; ++it) {
    ASSERT_EQ(std::memcmp(got[static_cast<std::size_t>(it)].data(),
                          ref[static_cast<std::size_t>(it)].data(),
                          sizeof(double) * kDim),
              0)
        << "iterate " << it;
  }

  // The baseline routed at least one GPU call (the shape is
  // GPU-favoured on this profile) and re-paid the A panel for each;
  // tracking pays it once, so it must move strictly fewer bytes.
  ASSERT_GT(base_stats.gpu_routed, 0U);
  ASSERT_GT(track_stats.gpu_routed, 0U);
  EXPECT_GT(base_stats.h2d_bytes_moved, 0.0);
  EXPECT_LT(track_stats.h2d_bytes_moved, base_stats.h2d_bytes_moved);
  EXPECT_GT(track_stats.h2d_bytes_skipped, 0.0);
  EXPECT_GT(track_stats.residency_hits, 0U);

  // With the policy off, the residency counters must stay silent (the
  // byte counters still accumulate so baselines compare like for like).
  EXPECT_EQ(base_stats.residency_hits, 0U);
  EXPECT_EQ(base_stats.residency_misses, 0U);
  EXPECT_EQ(base_stats.h2d_bytes_skipped, 0.0);
}

TEST(ResidencyDispatch, ThresholdCollapsesWithinAmortisationHorizon) {
  constexpr int kDim = 1536;
  constexpr int kIters = 12;
  dispatch::Dispatcher tracked(solver_config(
      dispatch::ResidencyPolicy::Track, core::TransferMode::Once));
  (void)run_solver_loop(tracked, kDim, kIters);

  const auto records = tracked.trace().snapshot();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kIters));

  // Amortised cold pricing must offload within the horizon (<= 8 warm
  // iterations per the acceptance bar; the first call itself qualifies).
  int first_gpu = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].route == dispatch::Route::Gpu) {
      first_gpu = static_cast<int>(i) + 1;
      break;
    }
  }
  ASSERT_GT(first_gpu, 0) << "never offloaded";
  EXPECT_LE(first_gpu, 8);

  // Zero redundant H2D: once a GPU-routed call is classified warm, its
  // operands are resident-clean and no DMA may be charged for them.
  bool saw_warm_gpu = false;
  for (const auto& r : records) {
    if (r.route != dispatch::Route::Gpu) continue;
    if (r.residency == dispatch::ResidencyClass::Warm) {
      saw_warm_gpu = true;
      EXPECT_EQ(r.h2d_moved_bytes, 0.0) << "seq " << r.seq;
      EXPECT_GT(r.h2d_skipped_bytes, 0.0) << "seq " << r.seq;
    }
  }
  EXPECT_TRUE(saw_warm_gpu);

  // The tracker holds the warmed panel.
  EXPECT_GT(tracked.residency().interval_count(), 0U);
}

TEST(ResidencyDispatch, CpuRoutedOutputInvalidatesWarmPanel) {
  // Warm a big panel through the GPU route, then land a CPU-routed
  // output inside it: the dispatcher must kill the overlapped interval
  // and the next call on the panel must pay DMA again.
  constexpr int kDim = 1536;
  dispatch::Dispatcher disp(solver_config(dispatch::ResidencyPolicy::Track,
                                          core::TransferMode::Once));
  const auto nn = static_cast<std::size_t>(kDim);
  std::vector<double> a(nn * nn), x(nn), y(nn, 0.0);
  util::Xoshiro256 rng(0x1237);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  disp.install();
  for (int it = 0; it < 3; ++it) {
    cblas_dgemv(CblasColMajor, CblasNoTrans, kDim, kDim, 1.0, a.data(),
                kDim, x.data(), 1, 0.0, y.data(), 1);
  }
  ASSERT_GT(disp.residency().interval_count(), 0U);
  ASSERT_EQ(disp.stats().residency_invalidations, 0U);

  // A strided output vector cannot take the GPU route (Reason::Forced,
  // CPU) and its span lands in the first rows of A.
  std::vector<double> sa(64 * 64, 0.25), sx(64, 1.0);
  cblas_dgemv(CblasColMajor, CblasNoTrans, 64, 64, 1.0, sa.data(), 64,
              sx.data(), 1, 0.0, a.data(), 2);

  const std::uint64_t invalidations_after =
      disp.stats().residency_invalidations;
  EXPECT_GT(invalidations_after, 0U);
  EXPECT_FALSE(disp.residency().resident_clean(dispatch::matrix_region(
      a.data(), sizeof(double), kDim, kDim, kDim)));

  // The next repeated-A call is no longer fully warm: A's bytes move
  // over the link again.
  cblas_dgemv(CblasColMajor, CblasNoTrans, kDim, kDim, 1.0, a.data(), kDim,
              x.data(), 1, 0.0, y.data(), 1);
  disp.uninstall();

  const auto records = disp.trace().snapshot();
  ASSERT_FALSE(records.empty());
  const dispatch::TraceRecord& last = records.back();
  if (last.route == dispatch::Route::Gpu) {
    EXPECT_GT(last.h2d_moved_bytes, 0.0);
    EXPECT_NE(last.residency, dispatch::ResidencyClass::Warm);
  }
}

TEST(ResidencySwap, TrackDispatcherCountsLikePerColumnSwaps) {
  dispatch::Dispatcher disp(solver_config(dispatch::ResidencyPolicy::Track,
                                          core::TransferMode::Once));
  std::vector<double> m(static_cast<std::size_t>(kLd * kCols), 1.0);
  std::vector<double> b(static_cast<std::size_t>(kCols * 3), 1.0);
  std::vector<double> c(static_cast<std::size_t>(kRows * 3), 0.0);
  // Warm the padded matrix: A of a GEMM pinned to the GPU route.
  const dispatch::Call warm = dispatch::Call::gemm<double>(
      blas::Transpose::No, blas::Transpose::No, kRows, 3, kCols, 1.0,
      m.data(), kLd, b.data(), kCols, 0.0, c.data(), kRows,
      disp.effective_mode());
  dispatch::Decision decision = disp.plan(warm);
  decision.route = dispatch::Route::Gpu;
  dispatch::Dispatcher::GpuJob job = disp.enqueue_gpu(decision, warm);
  disp.finish_gpu_job(job);
  ASSERT_TRUE(disp.residency().resident_clean(padded_matrix(m.data())));
  const std::size_t warm_intervals = disp.residency().interval_count();

  // Both rows clean: every pair mirrored, the map untouched.
  disp.host_swap(row_ptr(m.data(), 1), row_ptr(m.data(), 4), kElem,
                 kElem * kLd, kCols);
  EXPECT_EQ(disp.stats().residency_swaps_mirrored, 5U);
  EXPECT_EQ(disp.stats().residency_invalidations, 0U);
  EXPECT_EQ(disp.residency().interval_count(), warm_intervals);

  // Row 4 partly resident: the per-column count, chunk for chunk.
  for (const std::int64_t j : {1, 3}) {
    disp.host_write(&m[static_cast<std::size_t>(j * kLd + 4)], kElem, 0, 1);
  }
  ASSERT_EQ(disp.stats().residency_invalidations, 2U);
  ResidencyTracker reference = disp.residency();
  const ResidencyTracker::SwapResult want = swap_per_column(
      reference, padded_row(m.data(), 1), row_ptr(m.data(), 4));
  disp.host_swap(row_ptr(m.data(), 1), row_ptr(m.data(), 4), kElem,
                 kElem * kLd, kCols);
  EXPECT_EQ(disp.stats().residency_swaps_mirrored, 5U + want.mirrored);
  EXPECT_EQ(disp.stats().residency_invalidations, 2U + want.invalidated);
  EXPECT_EQ(want.invalidated, 2U);
  expect_same_elements(disp.residency(), reference, m.data());

  // Rows of an untracked matrix: nothing mirrored, nothing invalidated.
  std::vector<double> untracked(m.size(), 2.0);
  const dispatch::DispatchStats before = disp.stats();
  disp.host_swap(row_ptr(untracked.data(), 0),
                 row_ptr(untracked.data(), 5), kElem, kElem * kLd, kCols);
  EXPECT_EQ(disp.stats().residency_swaps_mirrored,
            before.residency_swaps_mirrored);
  EXPECT_EQ(disp.stats().residency_invalidations,
            before.residency_invalidations);
  EXPECT_EQ(disp.residency().interval_count(), reference.interval_count());
}

// ------------------------------------- synchronous vs handed-out jobs

/// ld-padded f64 operands of a short solver-like stream: later calls
/// read (and one rewrites) the outputs of earlier ones. On isambard-ai
/// under Track every GEMM routes to the GPU (under FirstTouch some go to
/// the CPU); the small GEMV reading a GPU output goes to the CPU.
struct PaddedStream {
  static constexpr int kN = 96;
  static constexpr int kLdPadded = 104;
  std::vector<double> a, b, c, d, x, y;

  PaddedStream() {
    const auto size = static_cast<std::size_t>(kLdPadded * kN);
    util::Xoshiro256 rng(0xe11de);
    for (auto* v : {&a, &b, &c, &d}) {
      v->resize(size);
      for (double& e : *v) e = rng.uniform(-1.0, 1.0);
    }
    x.resize(kN);
    for (double& e : x) e = rng.uniform(-1.0, 1.0);
    y.assign(kN, 0.0);
  }

  [[nodiscard]] std::vector<dispatch::Call> calls(core::TransferMode mode) {
    using blas::Transpose;
    auto gemm = [&](const std::vector<double>& lhs,
                    const std::vector<double>& rhs, std::vector<double>& out,
                    double beta) {
      return dispatch::Call::gemm<double>(
          Transpose::No, Transpose::No, kN, kN, kN, 1.0, lhs.data(),
          kLdPadded, rhs.data(), kLdPadded, beta, out.data(), kLdPadded,
          mode);
    };
    return {gemm(a, b, c, 0.5),
            gemm(c, b, d, 0.0),  // reads the previous output
            dispatch::Call::gemv<double>(Transpose::No, kN, kN, 1.0,
                                         c.data(), kLdPadded, x.data(), 1,
                                         0.0, y.data(), 1, mode),
            gemm(a, d, c, 1.0),  // rewrites the first output
            gemm(c, d, d, 0.0)};
  }
};

dispatch::DispatcherConfig gpu_stream_config(dispatch::ResidencyPolicy p) {
  dispatch::DispatcherConfig cfg =
      solver_config(p, core::TransferMode::Once);
  cfg.noise_sigma = 0.0;
  return cfg;
}

bool is_gpu(dispatch::Route route) {
  return route == dispatch::Route::Gpu ||
         route == dispatch::Route::GpuEmulated;
}

TEST(ResidencyDispatch, SynchronousRunMatchesHandedOutJobs) {
  for (const auto policy : {dispatch::ResidencyPolicy::Track,
                            dispatch::ResidencyPolicy::FirstTouch}) {
    SCOPED_TRACE(dispatch::to_string(policy));
    PaddedStream sync_data, job_data;
    dispatch::Dispatcher sync(gpu_stream_config(policy));
    dispatch::Dispatcher jobs(gpu_stream_config(policy));
    const auto sync_calls = sync_data.calls(sync.effective_mode());
    const auto job_calls = job_data.calls(jobs.effective_mode());

    for (std::size_t i = 0; i < sync_calls.size(); ++i) {
      sync.run(sync_calls[i]);
      const dispatch::Call& call = job_calls[i];
      const dispatch::Decision decision = jobs.plan(call);
      if (!is_gpu(decision.route)) {
        jobs.run_cpu(decision, call);
      } else {
        const Region out = dispatch::operand_regions(call).c;
        dispatch::Dispatcher::GpuJob job = jobs.enqueue_gpu(decision, call);
        // A handed-out job's output is dirty until it is joined.
        EXPECT_FALSE(jobs.residency().resident_clean(out)) << "call " << i;
        jobs.finish_gpu_job(job);
        EXPECT_TRUE(jobs.residency().resident_clean(out)) << "call " << i;
      }

      // Same map after every call: interval count and every operand.
      EXPECT_EQ(sync.residency().interval_count(),
                jobs.residency().interval_count())
          << "call " << i;
      for (std::size_t k = 0; k <= i; ++k) {
        const auto rs = dispatch::operand_regions(sync_calls[k]);
        const auto rj = dispatch::operand_regions(job_calls[k]);
        EXPECT_EQ(sync.residency().resident_clean(rs.a),
                  jobs.residency().resident_clean(rj.a));
        EXPECT_EQ(sync.residency().resident_clean(rs.b),
                  jobs.residency().resident_clean(rj.b));
        EXPECT_EQ(sync.residency().resident_clean(rs.c),
                  jobs.residency().resident_clean(rj.c));
      }
    }

    const dispatch::DispatchStats s = sync.stats();
    const dispatch::DispatchStats j = jobs.stats();
    EXPECT_EQ(s.gpu_routed, j.gpu_routed);
    EXPECT_GE(j.gpu_routed, 2U);
    if (policy == dispatch::ResidencyPolicy::Track) {
      EXPECT_EQ(j.gpu_routed, 4U);  // every GEMM
    }
    EXPECT_EQ(s.h2d_bytes_moved, j.h2d_bytes_moved);
    EXPECT_EQ(s.h2d_bytes_skipped, j.h2d_bytes_skipped);
    EXPECT_GT(j.h2d_bytes_skipped, 0.0);
    EXPECT_EQ(s.residency_hits, j.residency_hits);
    EXPECT_EQ(sync.virtual_now(), jobs.virtual_now());
    EXPECT_EQ(sync_data.c, job_data.c);
    EXPECT_EQ(sync_data.d, job_data.d);
    EXPECT_EQ(sync_data.y, job_data.y);
  }
}

}  // namespace
