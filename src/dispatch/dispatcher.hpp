#pragma once
// The online offload dispatcher.
//
// Installed as the cblas dispatch hook, the Dispatcher routes every live
// GEMM/GEMV — any precision, transposed or not — to the CPU library or
// the simulated GPU using the shape-bucketed decision table. Costs are
// accounted in MODELLED seconds on both sides — the CPU route is charged
// the profile's CpuModel prediction, the GPU route the virtual-time span
// its ops occupy on a dedicated SimGpu stream — so routing decisions
// compare like with like and are reproducible regardless of host load.
// Execution is still real: CPU calls run the optimized blas kernels, GPU
// calls run numerically through the SimGpu device, so results are
// bit-correct either way.
//
// Every call arrives as (and is keyed by) a core::OpDesc — the same
// descriptor the cblas seam built from the raw arguments. Transposed
// shapes are first-class on the GPU path; Reason::Forced survives only
// for layouts the device genuinely cannot take (strided GEMV vectors).
//
// Learning loop per call: seed the bucket from OffloadAdvisor predictions
// on first sight, choose a route (epsilon-greedy + hysteresis), execute,
// fold a deterministically-noised observation back into the EWMA, and
// record the whole decision in the trace ring.
//
// Every front door ends in ONE execution path: the cblas hook, the
// typed run_* entry points, the AdmissionQueue and the serve fleet all
// hand over a Call (descriptor + scalars + borrowed operands), which is
// planned, then either run by the CPU leaf or staged through the single
// GPU pipeline (operand regions -> residency-aware upload or managed
// placement -> kernel -> download or USM writeback). Pinned and device
// staging buffers are recycled from job to job. Only the CPU
// kernels and the device kernel launch are op- and type-specific.
//
// The dispatcher serialises calls with an internal mutex, so any number
// of threads may call it; the AdmissionQueue adds batching and overlap
// on top and keeps each producer's order on shared buffers.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/cblas.hpp"
#include "blas/library.hpp"
#include "core/advisor.hpp"
#include "core/sim_backend.hpp"
#include "dispatch/calibration_store.hpp"
#include "dispatch/decision_table.hpp"
#include "dispatch/decision_trace.hpp"
#include "dispatch/residency.hpp"
#include "perfmodel/noise.hpp"
#include "simgpu/device.hpp"
#include "sysprofile/profile.hpp"

namespace blob::dispatch {

struct DispatcherConfig {
  /// Timing models for both sides (CPU library personality aside).
  profile::SystemProfile profile = profile::dawn();
  /// CPU library the CPU route executes on (and the store is keyed by).
  blas::CpuLibraryPersonality personality = blas::generic_personality();
  std::size_t cpu_threads = 0;  ///< worker-pool cap (0 = hw concurrency)
  /// Declared data-movement pattern of the client (part of the table key).
  /// Under an active residency policy the dispatcher derives the mode
  /// itself (see effective_mode()) and this field is ignored.
  core::TransferMode mode = core::TransferMode::Once;
  /// Residency policy at the seam: Off prices every call as if nothing
  /// were resident (legacy Transfer-Always behaviour of the dispatcher),
  /// Track skips explicit H2D DMA for resident-clean operands,
  /// FirstTouch places operands in managed memory and lets the simgpu
  /// page-migration model move only what is not already device-resident.
  ResidencyPolicy residency = ResidencyPolicy::Off;
  /// Expected reuse horizon (calls) a cold upload is amortised over when
  /// pricing the GPU side of a cold-class call: a cold call under an
  /// active policy is the down payment on a warm run, so it is charged
  /// gpu_time(desc, horizon) / horizon instead of its full one-shot cost.
  int residency_horizon = 12;
  DecisionTableConfig table{};
  std::size_t trace_capacity = 2048;
  /// Log-normal sigma of the observation noise folded into the EWMAs
  /// (exercises the hysteresis); < 0 adopts profile.noise_sigma.
  double noise_sigma = -1.0;
  std::uint64_t noise_seed = 0xd15b0b;
  /// Execute GPU-routed kernels numerically (disable only for
  /// timing-only studies; live serving needs real results).
  bool functional = true;
  /// Run blas::autotune_blocking at startup when the calibration store
  /// did not supply a tuned blocking.
  bool autotune = false;
  int autotune_size = 192;
  int autotune_repeats = 1;
  /// When non-empty, load_calibration_file() is attempted at
  /// construction (mismatches fall back to advisor-seeded cold start).
  std::string calibration_path;
  /// Which device of a fleet this dispatcher drives. 0 (the default)
  /// reproduces the legacy single-device behaviour bit-for-bit; nonzero
  /// ids decorrelate the modelled noise stream and stamp every trace
  /// record so fleet traces stay attributable per device.
  int device_id = 0;
  /// Tenant namespace for the calibration store ("" = shared). Saved
  /// stores are stamped with it; loads reject files calibrated for a
  /// different tenant (NamespaceMismatch → advisor-seeded cold start).
  std::string nspace;
};

/// One BLAS call as every front door hands it over: the descriptor, the
/// scalars (held as double; float round-trips losslessly) and borrowed
/// operands — B for GEMM, x for GEMV; C or y is the output. The queued
/// front doors build it on the PRODUCER's thread, so the descriptor
/// carries that thread's cblas error budget across the hop to a worker
/// whose own thread-local slot is always exact.
struct Call {
  core::OpDesc desc;
  double alpha = 1.0;
  double beta = 0.0;
  const void* a = nullptr;
  const void* b = nullptr;
  void* c = nullptr;

  /// Lower raw f32/f64 BLAS arguments (validates dims, stamps `mode` and
  /// the calling thread's error budget).
  template <typename T>
  static Call gemm(blas::Transpose ta, blas::Transpose tb, int m, int n,
                   int k, T alpha, const T* a, int lda, const T* b, int ldb,
                   T beta, T* c, int ldc, core::TransferMode mode) {
    Call call{core::OpDesc::gemm(precision<T>(), ta, tb, m, n, k, lda, ldb,
                                 ldc, alpha == T(1), beta == T(0), mode),
              static_cast<double>(alpha), static_cast<double>(beta), a, b,
              c};
    call.desc.budget = blas::cblas_error_budget();
    return call;
  }
  template <typename T>
  static Call gemv(blas::Transpose ta, int m, int n, T alpha, const T* a,
                   int lda, const T* x, int incx, T beta, T* y, int incy,
                   core::TransferMode mode) {
    Call call{core::OpDesc::gemv(precision<T>(), ta, m, n, lda, incx, incy,
                                 alpha == T(1), beta == T(0), mode),
              static_cast<double>(alpha), static_cast<double>(beta), a, x,
              y};
    call.desc.budget = blas::cblas_error_budget();
    return call;
  }

 private:
  template <typename T>
  static constexpr model::Precision precision() {
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>);
    return std::is_same_v<T, float> ? model::Precision::F32
                                    : model::Precision::F64;
  }
};

/// Host operand footprints of one call in STORED shapes: A, B or x, C or
/// y (vectors follow their increments; element size follows precision).
OperandRegions operand_regions(const Call& call);

class Dispatcher final : public blas::CblasDispatchHook {
 public:
  explicit Dispatcher(DispatcherConfig config = {});
  ~Dispatcher() override;

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Register as the process-wide cblas hook / detach again. The
  /// destructor uninstalls automatically if still installed.
  void install();
  void uninstall();

  /// Can the simulated GPU take this layout at all? True for every GEMM
  /// (transposes included) with positive dims; GEMV additionally needs
  /// unit vector strides. False routes are recorded Reason::Forced.
  [[nodiscard]] static bool gpu_supported(const core::OpDesc& desc);

  /// Is the emulated-GEMM arm on the table for this call? fp64 GEMM
  /// under a non-exact error budget (per-call, batch == 1). Exact-budget
  /// traffic never sees the arm — its decision stream is identical to a
  /// build without emulation.
  [[nodiscard]] static bool emulation_eligible(const core::OpDesc& desc);

  /// The transfer mode stamped on every descriptor: the configured mode
  /// when the residency policy is off, otherwise the mode the policy
  /// implies (Track -> Once, FirstTouch -> Usm). OpDesc::transfer is a
  /// DERIVED property under an active policy, not a client declaration.
  [[nodiscard]] core::TransferMode effective_mode() const;

  // -- CblasDispatchHook (return true = call handled) ----------------------
  bool gemm(const core::OpDesc& desc, float alpha, const float* a,
            const float* b, float beta, float* c) override {
    return hook(desc, alpha, a, b, beta, c);
  }
  bool gemm(const core::OpDesc& desc, double alpha, const double* a,
            const double* b, double beta, double* c) override {
    return hook(desc, alpha, a, b, beta, c);
  }
  bool gemv(const core::OpDesc& desc, float alpha, const float* a,
            const float* x, float beta, float* y) override {
    return hook(desc, alpha, a, x, beta, y);
  }
  bool gemv(const core::OpDesc& desc, double alpha, const double* a,
            const double* x, double beta, double* y) override {
    return hook(desc, alpha, a, x, beta, y);
  }
  bool gemm(const core::OpDesc& desc, float alpha, const blas::f16* a,
            const blas::f16* b, float beta, blas::f16* c) override {
    return hook(desc, alpha, a, b, beta, c);
  }
  bool gemm(const core::OpDesc& desc, float alpha, const blas::bf16* a,
            const blas::bf16* b, float beta, blas::bf16* c) override {
    return hook(desc, alpha, a, b, beta, c);
  }
  bool gemv(const core::OpDesc& desc, float alpha, const blas::f16* a,
            const blas::f16* x, float beta, blas::f16* y) override {
    return hook(desc, alpha, a, x, beta, y);
  }
  bool gemv(const core::OpDesc& desc, float alpha, const blas::bf16* a,
            const blas::bf16* x, float beta, blas::bf16* y) override {
    return hook(desc, alpha, a, x, beta, y);
  }

  /// Host stores outside the seam (factorization panel kernels, pivot
  /// interchanges). host_write invalidates the touched chunks; host_swap
  /// mirrors the interchange on the device copies when both sides are
  /// clean (a device laswp would keep them clean) and invalidates
  /// otherwise.
  void host_write(const void* ptr, std::size_t chunk_bytes,
                  std::size_t stride_bytes, std::size_t count) override;
  void host_swap(const void* pa, const void* pb, std::size_t chunk_bytes,
                 std::size_t stride_bytes, std::size_t count) override;

  // -- the execution path (any op, any precision) --------------------------

  /// Plan and execute one call synchronously (the descriptor's transfer
  /// mode is re-derived from the residency policy).
  void run(Call call);

  /// Decide the route for a call without executing (seeds the bucket if
  /// needed); regions come from the call's operands.
  Decision plan(const Call& call);

  /// Decide the route for `desc` without executing (seeds the bucket if
  /// needed). Used by the queue to learn whether a call goes to the GPU
  /// (overlap-eligible) before committing work. `regions` are the host
  /// operand footprints; with an active residency policy they classify
  /// the call cold/warm and price only the bytes that must move (an
  /// empty OperandRegions classifies as cold).
  Decision plan(const core::OpDesc& desc, bool gpu_ok,
                const OperandRegions& regions = {});

  /// Execute a call on the CPU under a decision already made by plan()
  /// (the admission queue plans first to learn which calls can overlap
  /// with GPU work, then executes). Accounts + observes like run().
  void run_cpu(const Decision& decision, const Call& call);

  /// Same-shape small calls coalesced by the admission queue (every
  /// member shares desc, alpha and beta; f32/f64 only): executed as one
  /// blas::gemm_batched / gemv_batched submission, charged the modelled
  /// amortised batched cost, observed into the CPU arm of the bucket.
  void run_coalesced(const std::vector<const Call*>& members);

  /// A GPU call in flight on the dispatch stream. Buffers stay alive and
  /// the client's output is written only at finish_gpu_job(), which
  /// hands the pinned and device buffers back for later jobs to reuse.
  struct GpuJob {
    bool active = false;
    double submit_floor = 0.0;  ///< virtual time the job could start
    double done = 0.0;          ///< virtual completion time
    std::vector<sim::Buffer> buffers;
    std::function<void()> unpack;
    core::OpDesc desc;
    BucketKey key;
    Decision decision;
    std::uint64_t seq = 0;
    double h2d_moved = 0.0;    ///< H2D bytes this job actually charged
    double h2d_skipped = 0.0;  ///< H2D bytes skipped via residency hits
    /// Output footprint (C or y) that enqueue_gpu marked resident-dirty;
    /// the join marks it clean. Empty when nothing was marked.
    Region dirty_out;
  };

  /// Stage a GPU-routed call on the dispatch stream and return without
  /// synchronising; the caller overlaps CPU work and later calls
  /// finish_gpu_job(). `decision` must come from plan() for this call:
  /// Route::GpuEmulated runs the fp32-slice kernel (slice count from the
  /// budget) behind the same staging and link traffic as Route::Gpu.
  /// Under an active residency policy the output stays resident-dirty
  /// (never a residency hit) until finish_gpu_job() joins the job.
  GpuJob enqueue_gpu(const Decision& decision, const Call& call);

  /// Join a pending GPU job: advance the virtual clock to its completion,
  /// write the output back to the client buffer, account + observe.
  /// `overlapped` marks that CPU work ran while the job was in flight.
  void finish_gpu_job(GpuJob& job, bool overlapped = false);

  // -- typed forwards (S is T for f32/f64, float for f16/bf16) -------------
  template <typename T, typename S>
  void run_gemm(const core::OpDesc& desc, S alpha, const T* a, const T* b,
                S beta, T* c) {
    run(Call{desc, alpha, beta, a, b, c});
  }
  template <typename T, typename S>
  void run_gemv(const core::OpDesc& desc, S alpha, const T* a, const T* x,
                S beta, T* y) {
    run(Call{desc, alpha, beta, a, x, y});
  }
  template <typename T, typename S>
  void run_gemm_cpu(const Decision& decision, const core::OpDesc& desc,
                    S alpha, const T* a, const T* b, S beta, T* c) {
    run_cpu(decision, Call{desc, alpha, beta, a, b, c});
  }
  template <typename T, typename S>
  void run_gemv_cpu(const Decision& decision, const core::OpDesc& desc,
                    S alpha, const T* a, const T* x, S beta, T* y) {
    run_cpu(decision, Call{desc, alpha, beta, a, x, y});
  }
  template <typename T, typename S>
  GpuJob enqueue_gemm_gpu(const Decision& decision, const core::OpDesc& desc,
                          S alpha, const T* a, const T* b, S beta, T* c) {
    return enqueue_gpu(decision, Call{desc, alpha, beta, a, b, c});
  }
  template <typename T, typename S>
  GpuJob enqueue_gemv_gpu(const Decision& decision, const core::OpDesc& desc,
                          S alpha, const T* a, const T* x, S beta, T* y) {
    return enqueue_gpu(decision, Call{desc, alpha, beta, a, x, y});
  }

  // -- cost oracle ---------------------------------------------------------

  struct Costs {
    double cpu_s = 0.0;
    double gpu_s = 0.0;
    /// Emulated-GPU price; infinity whenever the call is not
    /// emulation-eligible (exact budget, GEMV, non-f64, batched).
    double emu_s = std::numeric_limits<double>::infinity();
  };

  /// Noise-free modelled per-call costs — the same numbers used to seed
  /// buckets. blob-serve uses these for the oracle / always-CPU /
  /// always-GPU regret baselines.
  [[nodiscard]] Costs modelled_costs(const core::OpDesc& desc) const;
  [[nodiscard]] Route oracle_route(const core::OpDesc& desc) const;

  // -- calibration ---------------------------------------------------------

  [[nodiscard]] CalibrationData make_calibration() const;
  /// Restore a table + tuned blockings (counts calibration_loads).
  void apply_calibration(const CalibrationData& data);
  bool save_calibration(const std::string& path) const;
  LoadStatus load_calibration(const std::string& path);
  /// Outcome of the constructor-time load (IoError when no path given).
  [[nodiscard]] LoadStatus startup_load_status() const {
    return startup_load_;
  }

  /// Tuned blockings (from the store or a startup autotune), if any.
  [[nodiscard]] const std::optional<blas::GemmBlocking>& blocking_f32()
      const {
    return tuned_f32_;
  }
  [[nodiscard]] const std::optional<blas::GemmBlocking>& blocking_f64()
      const {
    return tuned_f64_;
  }

  // -- observability -------------------------------------------------------

  [[nodiscard]] DispatchStats stats() const { return counters_.snapshot(); }
  [[nodiscard]] const DecisionTrace& trace() const { return trace_; }
  [[nodiscard]] const DecisionTable& table() const { return table_; }
  [[nodiscard]] const DispatcherConfig& config() const { return config_; }
  [[nodiscard]] const blas::CpuBlasLibrary& cpu_library() const {
    return *cpu_;
  }
  /// Virtual seconds elapsed on the simulated device.
  [[nodiscard]] double virtual_now() const { return device_.now(); }
  /// The residency interval map (tests inspect interval counts).
  [[nodiscard]] const ResidencyTracker& residency() const {
    return residency_;
  }
  /// Snapshot of the simulated device's allocation accounting. Staging
  /// buffers are recycled, so pinned and device bytes hold the cached
  /// high-water mark of the jobs in flight, as a caching allocator would.
  [[nodiscard]] sim::MemoryTracker device_memory() const;

 private:
  template <typename T, typename S>
  bool hook(const core::OpDesc& desc, S alpha, const T* a, const T* b,
            S beta, T* c) {
    run(Call{desc, alpha, beta, a, b, c});
    return true;
  }

  /// The op- and type-specific leaves: CPU execution (the CPU library for
  /// f32/f64, blas::hgemm/hgemv with f32 accumulate for the half
  /// precisions) and the device kernel launch on staged buffers.
  void cpu_exec(const Call& call);
  void launch_kernel(Route route, const Call& call, sim::Buffer& a,
                     sim::Buffer& b, sim::Buffer& c, sim::Stream& stream);

  /// Seed + choose under mutex_ (callers hold the lock).
  Decision plan_locked(const core::OpDesc& desc, bool gpu_ok,
                       const OperandRegions& regions = {});
  /// `gpu_seed` replaces the advisor's GPU-side seed (warm buckets are
  /// seeded with the residency-priced cost, not the full-transfer one).
  /// `emu_kernel_delta` (emulated kernel time minus native kernel time,
  /// set only for emulation-eligible calls) seeds the emulated arm at
  /// the GPU seed plus the delta — same transfers, swapped kernel.
  void ensure_seeded(const BucketKey& key, const core::OpDesc& desc,
                     std::optional<double> gpu_seed = std::nullopt,
                     std::optional<double> emu_kernel_delta = std::nullopt);

  /// Is the interval map live? Off disables it; FirstTouch without XNACK
  /// also disables it (no page ever migrates, so nothing becomes
  /// resident and classifying calls warm would mis-price them).
  [[nodiscard]] bool tracking_enabled() const;
  /// Which of A, B/x and C/y are resident-clean (none while tracking is
  /// off); one lookup per operand serves both classify and pricing.
  [[nodiscard]] std::array<bool, 3> clean_operands_locked(
      const OperandRegions& regions) const;
  /// Per-structure H2D bytes this call still needs to move (0 for
  /// resident-clean operands) plus the output download.
  [[nodiscard]] core::SimBackend::GpuTraffic traffic_locked(
      const core::OpDesc& desc, const std::array<bool, 3>& clean) const;
  /// A pinned host or device staging buffer holding at least `bytes`:
  /// the best-fitting free one, else a fresh allocation that replaces a
  /// too-small free one. Its contents are stale; staging overwrites the
  /// `bytes` it uses.
  sim::Buffer acquire_staging_locked(sim::MemKind kind, std::size_t bytes);
  /// FirstTouch path: decide whether a managed operand's pages are
  /// already device-resident (free) or will fault-migrate in the kernel.
  void place_managed_locked(sim::Buffer& buffer, const Region& region,
                            GpuJob& job);
  /// A host-side (CPU-routed) write landed on `region`: invalidate.
  void note_host_output_locked(const Region& region);
  void count_invalidations(std::size_t killed);
  void count_residency_hit();
  void count_residency_miss();

  void run_cpu_locked(const Decision& decision, const Call& call,
                      const Region& out);
  GpuJob enqueue_gpu_locked(const Decision& decision, const Call& call);
  void finish_gpu_job_locked(GpuJob& job, bool overlapped);

  /// CPU-side modelled cost of one call (noise-free).
  [[nodiscard]] double cpu_cost(const core::OpDesc& desc) const;
  /// Deterministic per-call observation noise (salted by `seq`).
  [[nodiscard]] double noise_factor(const core::OpDesc& desc, Route route,
                                    std::uint64_t seq) const;
  void account_and_observe(const core::OpDesc& desc, const BucketKey& key,
                           const Decision& decision, double cost_s,
                           int batch, double h2d_moved = 0.0,
                           double h2d_skipped = 0.0);

  DispatcherConfig config_;
  mutable std::mutex mutex_;
  /// Noise-free analytic twin used for seeding and the cost oracle.
  mutable core::SimBackend model_;
  core::OffloadAdvisor advisor_;
  sim::SimGpu device_;
  sim::Stream& gpu_stream_;
  std::unique_ptr<blas::CpuBlasLibrary> cpu_;
  DecisionTable table_;
  DecisionTrace trace_;
  DispatchCounters counters_;
  ResidencyTracker residency_;
  model::NoiseModel noise_;
  std::optional<blas::GemmBlocking> tuned_f32_;
  std::optional<blas::GemmBlocking> tuned_f64_;
  LoadStatus startup_load_ = LoadStatus::IoError;
  std::uint64_t seq_ = 0;
  bool installed_ = false;
  /// Staging buffers of finished jobs (Off and Track policies), recycled
  /// by later enqueues. Declared after device_: destroyed before it.
  std::vector<sim::Buffer> staging_free_;
};

}  // namespace blob::dispatch
