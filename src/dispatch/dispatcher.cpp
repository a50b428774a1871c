#include "dispatch/dispatcher.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "blas/autotune.hpp"
#include "blas/batched.hpp"
#include "blas/emulated_gemm.hpp"
#include "blas/half_gemm.hpp"
#include "core/flops.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace blob::dispatch {

namespace {

template <typename T>
inline constexpr bool kIsHalf =
    std::is_same_v<T, blas::f16> || std::is_same_v<T, blas::bf16>;

/// One operand as the device stages it: `rows` x `cols` column-major,
/// `ld` apart on the host, packed tightly (ld == rows) on the device. A
/// GEMV's x and y are len x 1 columns.
struct Dense {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t ld = 0;

  [[nodiscard]] std::size_t bytes(std::size_t es) const {
    return es * static_cast<std::size_t>(rows) *
           static_cast<std::size_t>(cols);
  }
};

/// Host-side staging (buffer acquire, pack, unpack, resident refresh),
/// traced apart from the kernels and DMA legs it feeds.
constexpr const char* kStageSpan = "dispatch.gpu_stage";

/// A, B (or x) and C (or y) of a device-supported call in STORED shapes.
std::array<Dense, 3> dense_operands(const core::OpDesc& d) {
  if (d.op == core::KernelOp::Gemm) {
    return {{{d.rows_a(), d.cols_a(), d.lda},
             {d.rows_b(), d.cols_b(), d.ldb},
             {d.m, d.n, d.ldc}}};
  }
  return {{{d.m, d.n, d.lda},
           {d.x_len(), 1, d.x_len()},
           {d.y_len(), 1, d.y_len()}}};
}

/// Copy the `s.rows` x `s.cols` block between buffers whose leading
/// dimensions (in elements) are `dst_ld` and `src_ld`: host -> staging
/// packs (src_ld = s.ld), staging -> host unpacks and leaves the host
/// padding rows untouched (dst_ld = s.ld).
void copy_dense(void* dst, std::int64_t dst_ld, const void* src,
                std::int64_t src_ld, const Dense& s, std::size_t es) {
  if (s.ld == s.rows) {
    std::memcpy(dst, src, s.bytes(es));
    return;
  }
  const std::size_t col = es * static_cast<std::size_t>(s.rows);
  for (std::int64_t j = 0; j < s.cols; ++j) {
    std::memcpy(static_cast<char*>(dst) +
                    static_cast<std::size_t>(j * dst_ld) * es,
                static_cast<const char*>(src) +
                    static_cast<std::size_t>(j * src_ld) * es,
                col);
  }
}

/// The one typed visit: calls f with a value of the element type that
/// `precision` names.
template <typename F>
void visit_precision(model::Precision precision, F&& f) {
  switch (precision) {
    case model::Precision::F32:
      return f(float{});
    case model::Precision::F64:
      return f(double{});
    case model::Precision::F16:
      return f(blas::f16{});
    case model::Precision::BF16:
      return f(blas::bf16{});
  }
}

sim::SimGpu::Config device_config(const DispatcherConfig& config) {
  sim::SimGpu::Config dev;
  dev.gpu = config.profile.gpu;
  dev.link = config.profile.link;
  dev.functional = config.functional;
  // Live serving must never skip numeric execution: clients read C.
  dev.functional_dim_limit = std::numeric_limits<double>::max();
  dev.trace = false;
  return dev;
}

/// Cold / warm-partial / warm from which operands are resident-clean.
ResidencyClass classify(const OperandRegions& regions,
                        const std::array<bool, 3>& clean) {
  const auto valid = static_cast<int>(regions.a.valid()) +
                     static_cast<int>(regions.b.valid()) +
                     static_cast<int>(regions.c.valid());
  const auto warm = static_cast<int>(clean[0]) + static_cast<int>(clean[1]) +
                    static_cast<int>(clean[2]);
  if (warm == 0) return ResidencyClass::Cold;
  return warm == valid ? ResidencyClass::Warm : ResidencyClass::WarmPartial;
}

const char* route_noise_tag(Route route) {
  switch (route) {
    case Route::Cpu:
      return "dispatch-cpu";
    case Route::Gpu:
      return "dispatch-gpu";
    case Route::CpuBatched:
      return "dispatch-batched";
    case Route::GpuEmulated:
      return "dispatch-emulated";
  }
  return "dispatch";
}

}  // namespace

OperandRegions operand_regions(const Call& call) {
  const core::OpDesc& d = call.desc;
  const std::size_t es = model::bytes_of(d.precision);
  OperandRegions r;
  r.a = matrix_region(call.a, es, d.lda, d.rows_a(), d.cols_a());
  if (d.op == core::KernelOp::Gemm) {
    r.b = matrix_region(call.b, es, d.ldb, d.rows_b(), d.cols_b());
    r.c = matrix_region(call.c, es, d.ldc, d.m, d.n);
  } else {
    r.b = vector_region(call.b, es, d.x_len(), d.incx);
    r.c = vector_region(call.c, es, d.y_len(), d.incy);
  }
  return r;
}

Dispatcher::Dispatcher(DispatcherConfig config)
    : config_(std::move(config)),
      model_(config_.profile, /*noise_override=*/0.0, 0x5eed,
             config_.device_id),
      advisor_(model_),
      device_(device_config(config_)),
      gpu_stream_(device_.create_stream("dispatch")),
      table_(config_.table),
      trace_(config_.trace_capacity),
      // Device id salts the observation-noise seed (id 0 keeps the
      // legacy stream) so same-profile fleet devices jitter independently.
      noise_(config_.noise_sigma >= 0.0 ? config_.noise_sigma
                                        : config_.profile.noise_sigma,
             config_.noise_seed + 0x9e3779b97f4a7c15ull *
                                      static_cast<std::uint64_t>(
                                          config_.device_id)) {
  gpu_stream_.set_on_op([this](const sim::OpRecord&) {
    counters_.gpu_ops_enqueued.fetch_add(1, std::memory_order_relaxed);
  });

  if (!config_.calibration_path.empty()) {
    startup_load_ = load_calibration(config_.calibration_path);
  }

  if (config_.autotune) {
    if (!tuned_f32_) {
      tuned_f32_ = blas::autotune_blocking<float>(config_.autotune_size,
                                                  config_.autotune_repeats)
                       .blocking;
      counters_.autotune_runs.fetch_add(1, std::memory_order_relaxed);
    }
    if (!tuned_f64_) {
      tuned_f64_ = blas::autotune_blocking<double>(config_.autotune_size,
                                                   config_.autotune_repeats)
                       .blocking;
      counters_.autotune_runs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // The CPU library takes one blocking for both precisions; prefer the
  // f64 tune (the conservative one — smaller working set per block).
  blas::CpuLibraryPersonality personality = config_.personality;
  if (tuned_f64_) {
    personality.blocking = *tuned_f64_;
  } else if (tuned_f32_) {
    personality.blocking = *tuned_f32_;
  }
  cpu_ = std::make_unique<blas::CpuBlasLibrary>(personality,
                                                config_.cpu_threads);
}

Dispatcher::~Dispatcher() {
  if (blas::cblas_dispatch_hook() == this) {
    blas::cblas_set_dispatch_hook(nullptr);
  }
}

void Dispatcher::install() {
  blas::cblas_set_dispatch_hook(this);
  installed_ = true;
}

void Dispatcher::uninstall() {
  if (blas::cblas_dispatch_hook() == this) {
    blas::cblas_set_dispatch_hook(nullptr);
  }
  installed_ = false;
}

bool Dispatcher::gpu_supported(const core::OpDesc& desc) {
  if (desc.m <= 0 || desc.n <= 0) return false;
  if (desc.op == core::KernelOp::Gemm) return desc.k > 0;
  // GEMV: the device kernels take dense unit-stride vectors only; a
  // strided x/y is the one layout that still forces the CPU route.
  return desc.incx == 1 && desc.incy == 1;
}

bool Dispatcher::emulation_eligible(const core::OpDesc& desc) {
  return desc.op == core::KernelOp::Gemm &&
         desc.precision == model::Precision::F64 &&
         !desc.budget.is_exact() && desc.batch <= 1;
}

core::TransferMode Dispatcher::effective_mode() const {
  switch (config_.residency) {
    case ResidencyPolicy::Off:
      return config_.mode;
    case ResidencyPolicy::Track:
      return core::TransferMode::Once;
    case ResidencyPolicy::FirstTouch:
      return core::TransferMode::Usm;
  }
  return config_.mode;
}

bool Dispatcher::tracking_enabled() const {
  if (config_.residency == ResidencyPolicy::Off) return false;
  if (config_.residency == ResidencyPolicy::FirstTouch &&
      !device_.link_model().xnack) {
    return false;
  }
  return true;
}

std::array<bool, 3> Dispatcher::clean_operands_locked(
    const OperandRegions& regions) const {
  if (!tracking_enabled()) return {};
  return {residency_.resident_clean(regions.a),
          residency_.resident_clean(regions.b),
          residency_.resident_clean(regions.c)};
}

core::SimBackend::GpuTraffic Dispatcher::traffic_locked(
    const core::OpDesc& desc, const std::array<bool, 3>& clean) const {
  // Packed per-structure byte counts — exactly what the enqueue paths
  // stage and what SimBackend::gpu_time charges per structure.
  const double es = static_cast<double>(model::bytes_of(desc.precision));
  const double md = static_cast<double>(desc.m);
  const double nd = static_cast<double>(desc.n);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;  // A, B/x, C/y
  if (desc.op == core::KernelOp::Gemm) {
    const double kd = static_cast<double>(desc.k);
    s0 = es * md * kd;
    s1 = es * kd * nd;
    s2 = es * md * nd;
  } else {
    s0 = es * md * nd;
    s1 = es * static_cast<double>(desc.x_len());
    s2 = es * static_cast<double>(desc.y_len());
  }
  core::SimBackend::GpuTraffic traffic;
  traffic.h2d[0] = clean[0] ? 0.0 : s0;
  traffic.h2d[1] = clean[1] ? 0.0 : s1;
  traffic.h2d[2] = clean[2] ? 0.0 : s2;
  traffic.d2h_bytes = s2;
  traffic.usm = config_.residency == ResidencyPolicy::FirstTouch;
  return traffic;
}

void Dispatcher::count_residency_hit() {
  counters_.residency_hits.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& hits = obs::counter("dispatch.residency.hit");
    hits.add(1);
  }
}

void Dispatcher::count_residency_miss() {
  counters_.residency_misses.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& misses = obs::counter("dispatch.residency.miss");
    misses.add(1);
  }
}

void Dispatcher::note_host_output_locked(const Region& region) {
  if (!tracking_enabled() || !region.valid()) return;
  count_invalidations(residency_.note_host_write(region));
}

void Dispatcher::count_invalidations(std::size_t killed) {
  if (killed == 0) return;
  counters_.residency_invalidations.fetch_add(killed,
                                              std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& invalidations =
        obs::counter("dispatch.residency.invalidate");
    invalidations.add(killed);
  }
}

void Dispatcher::host_write(const void* ptr, std::size_t chunk_bytes,
                            std::size_t stride_bytes, std::size_t count) {
  if (!tracking_enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  note_host_output_locked(Region{ptr, chunk_bytes, stride_bytes, count});
}

void Dispatcher::host_swap(const void* pa, const void* pb,
                           std::size_t chunk_bytes, std::size_t stride_bytes,
                           std::size_t count) {
  if (!tracking_enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // A clean pair stays clean: the modelled device applies the same
  // interchange (laswp), so the swap is mirrored, not a write.
  const ResidencyTracker::SwapResult swap = residency_.note_host_swap(
      Region{pa, chunk_bytes, stride_bytes, count}, pb);
  if (swap.mirrored > 0) {
    counters_.residency_swaps_mirrored.fetch_add(swap.mirrored,
                                                 std::memory_order_relaxed);
  }
  count_invalidations(swap.invalidated);
}

// -- decision plumbing -------------------------------------------------------

void Dispatcher::ensure_seeded(const BucketKey& key, const core::OpDesc& desc,
                               std::optional<double> gpu_seed,
                               std::optional<double> emu_kernel_delta) {
  if (table_.contains(key)) return;
  const core::Advice advice = advisor_.advise(desc, /*iterations=*/1);
  const double gpu_s = gpu_seed.value_or(advice.gpu_seconds);
  std::optional<double> emu_s;
  if (emu_kernel_delta.has_value()) emu_s = gpu_s + *emu_kernel_delta;
  table_.seed(key, advice.cpu_seconds, gpu_s, emu_s);
}

Decision Dispatcher::plan_locked(const core::OpDesc& desc, bool gpu_ok,
                                 const OperandRegions& regions) {
  obs::Span span("dispatch.decide", obs::Category::Dispatch);
  const std::array<bool, 3> clean = clean_operands_locked(regions);
  const ResidencyClass cls = classify(regions, clean);
  BucketKey key = bucket_key(desc);
  key.residency = cls;

  // Residency-aware pricing of the GPU arm. Cold calls are priced as the
  // down payment on a warm run — gpu_time over the reuse horizon,
  // amortised — because a cold call's own full-transfer cost would route
  // every iterative workload to the CPU and residency would never warm.
  // Warm(-partial) calls are seeded with the cost of moving only the
  // bytes that are not already resident; from then on their bucket
  // learns from measured warm executions.
  std::optional<double> gpu_seed;
  std::optional<double> gpu_override;
  if (config_.residency != ResidencyPolicy::Off && gpu_ok) {
    if (cls == ResidencyClass::Cold) {
      const int horizon = std::max(1, config_.residency_horizon);
      if (const auto amortised = model_.gpu_time(desc, horizon)) {
        gpu_seed = *amortised / static_cast<double>(horizon);
        gpu_override = gpu_seed;
      }
    } else {
      gpu_seed = model_.gpu_time_with(desc, traffic_locked(desc, clean));
    }
  }

  // The emulated arm prices as the GPU arm with the kernel term swapped
  // (link traffic is identical — operands cross as fp64 either way), so
  // every GPU-side pricing refinement above carries over as a constant
  // kernel delta.
  const bool emu_ok = gpu_ok && emulation_eligible(desc);
  std::optional<double> emu_delta;
  std::optional<double> emu_override;
  if (emu_ok) {
    const int slices = blas::slices_for_budget(desc.budget);
    emu_delta =
        model_.emulated_kernel_time(desc, slices) - model_.kernel_time(desc);
    if (gpu_override.has_value()) emu_override = *gpu_override + *emu_delta;
  }

  ensure_seeded(key, desc, gpu_seed, emu_delta);
  const Route before = table_.find(key)->incumbent;
  Decision decision =
      table_.choose(key, gpu_ok, gpu_override, emu_ok, emu_override);
  decision.residency = cls;
  if (table_.find(key)->incumbent != before) {
    counters_.route_switches.fetch_add(1, std::memory_order_relaxed);
  }
  counters_.count_reason(decision.reason);
  return decision;
}

Decision Dispatcher::plan(const core::OpDesc& desc, bool gpu_ok,
                          const OperandRegions& regions) {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_locked(desc, gpu_ok, regions);
}

Decision Dispatcher::plan(const Call& call) {
  return plan(call.desc, gpu_supported(call.desc), operand_regions(call));
}

double Dispatcher::cpu_cost(const core::OpDesc& desc) const {
  core::OpDesc item = desc;
  item.batch = 1;  // per-call cost; coalescing is charged separately
  return model_.cpu_time(item, /*iterations=*/1);
}

double Dispatcher::noise_factor(const core::OpDesc& desc, Route route,
                                std::uint64_t seq) const {
  // The model's noise is deterministic per sample identity; salting with
  // the call sequence number makes successive calls of the same shape see
  // different (but reproducible) factors — what the EWMA + hysteresis
  // machinery is there to absorb.
  return noise_.factor(config_.profile.name, route_noise_tag(route),
                       desc.precision, desc.m, desc.n, desc.k,
                       static_cast<std::int64_t>(seq));
}

void Dispatcher::account_and_observe(const core::OpDesc& desc,
                                     const BucketKey& key,
                                     const Decision& decision, double cost_s,
                                     int batch, double h2d_moved,
                                     double h2d_skipped) {
  const std::uint64_t seq = seq_++;
  const auto b = static_cast<std::uint64_t>(batch);
  counters_.calls.fetch_add(b, std::memory_order_relaxed);
  (desc.op == core::KernelOp::Gemm ? counters_.gemm_calls
                                   : counters_.gemv_calls)
      .fetch_add(b, std::memory_order_relaxed);

  switch (decision.route) {
    case Route::Cpu:
      counters_.cpu_routed.fetch_add(b, std::memory_order_relaxed);
      counters_.add_seconds(counters_.cpu_seconds, cost_s);
      break;
    case Route::CpuBatched:
      counters_.batched_routed.fetch_add(b, std::memory_order_relaxed);
      counters_.coalesced_batches.fetch_add(1, std::memory_order_relaxed);
      counters_.add_seconds(counters_.cpu_seconds, cost_s);
      break;
    case Route::Gpu:
      counters_.gpu_routed.fetch_add(b, std::memory_order_relaxed);
      counters_.add_seconds(counters_.gpu_seconds, cost_s);
      break;
    case Route::GpuEmulated:
      counters_.emulated_routed.fetch_add(b, std::memory_order_relaxed);
      counters_.add_seconds(counters_.gpu_seconds, cost_s);
      break;
  }
  // Byte accounting is unconditional (policy Off included) so baselines
  // and residency runs compare on the same counter.
  if (h2d_moved > 0.0) {
    counters_.add_seconds(counters_.h2d_bytes_moved, h2d_moved);
  }
  if (h2d_skipped > 0.0) {
    counters_.add_seconds(counters_.h2d_bytes_skipped, h2d_skipped);
  }

  // Per-call amortised observation: for a coalesced batch the CPU arm
  // learns the amortised cost — that IS the cost of the CPU route while
  // coalescing is on.
  const double per_call = cost_s / static_cast<double>(batch);
  const double observed = per_call * noise_factor(desc, decision.route, seq);
  table_.observe(key, decision.route, observed);

  TraceRecord rec;
  rec.seq = seq;
  rec.device = config_.device_id;
  rec.op = desc.op;
  rec.precision = desc.precision;
  rec.mode = desc.mode;
  rec.bucket = key.bucket;
  rec.trans_a = desc.trans_a;
  rec.trans_b = desc.trans_b;
  rec.m = desc.m;
  rec.n = desc.n;
  rec.k = desc.k;
  rec.route = decision.route;
  rec.reason = decision.reason;
  rec.cpu_est_s = decision.cpu_est_s;
  rec.gpu_est_s = decision.gpu_est_s;
  rec.emu_est_s = decision.emu_est_s;
  rec.budget = desc.budget;
  rec.slices = decision.route == Route::GpuEmulated
                   ? blas::slices_for_budget(desc.budget)
                   : 0;
  rec.cost_s = per_call;
  rec.observed_s = observed;
  rec.batch = batch;
  rec.residency = decision.residency;
  rec.h2d_moved_bytes = h2d_moved;
  rec.h2d_skipped_bytes = h2d_skipped;
  rec.span_id = obs::Span::current();
  trace_.record(rec);

  if (obs::enabled()) {
    static obs::Counter& calls = obs::counter("dispatch.calls");
    static obs::Counter& cpu_routed = obs::counter("dispatch.cpu_routed");
    static obs::Counter& gpu_routed = obs::counter("dispatch.gpu_routed");
    static obs::Counter& batched_routed =
        obs::counter("dispatch.batched_routed");
    static obs::Counter& emulated_routed =
        obs::counter("dispatch.emulated_routed");
    calls.add(b);
    switch (decision.route) {
      case Route::Cpu:
        cpu_routed.add(b);
        break;
      case Route::CpuBatched:
        batched_routed.add(b);
        break;
      case Route::Gpu:
        gpu_routed.add(b);
        break;
      case Route::GpuEmulated:
        emulated_routed.add(b);
        break;
    }
  }
}

// -- the op- and type-specific leaves ----------------------------------------

void Dispatcher::cpu_exec(const Call& call) {
  const core::OpDesc& d = call.desc;
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  const auto k = static_cast<int>(d.k);
  const auto lda = static_cast<int>(d.lda);
  visit_precision(d.precision, [&](auto tag) {
    using T = decltype(tag);
    using S = sim::kernel_scalar_t<T>;
    const auto alpha = static_cast<S>(call.alpha);
    const auto beta = static_cast<S>(call.beta);
    const auto* a = static_cast<const T*>(call.a);
    const auto* b = static_cast<const T*>(call.b);
    auto* c = static_cast<T*>(call.c);
    if (d.op == core::KernelOp::Gemm) {
      const auto ldb = static_cast<int>(d.ldb);
      const auto ldc = static_cast<int>(d.ldc);
      if constexpr (kIsHalf<T>) {
        blas::hgemm<T>(d.trans_a, d.trans_b, m, n, k, alpha, a, lda, b, ldb,
                       beta, c, ldc, cpu_->pool(), cpu_->max_threads());
      } else {
        cpu_->do_gemm(d.trans_a, d.trans_b, m, n, k, alpha, a, lda, b, ldb,
                      beta, c, ldc);
      }
    } else if constexpr (kIsHalf<T>) {
      blas::hgemv<T>(d.trans_a, m, n, alpha, a, lda, b, beta, c);
    } else {
      cpu_->do_gemv(d.trans_a, m, n, alpha, a, lda, b,
                    static_cast<int>(d.incx), beta, c,
                    static_cast<int>(d.incy));
    }
  });
}

void Dispatcher::launch_kernel(Route route, const Call& call, sim::Buffer& a,
                               sim::Buffer& b, sim::Buffer& c,
                               sim::Stream& stream) {
  const core::OpDesc& d = call.desc;
  const auto m = static_cast<int>(d.m);
  const auto n = static_cast<int>(d.n);
  const auto k = static_cast<int>(d.k);
  // Staged operands are tight: leading dimensions are the stored rows.
  const auto lda = static_cast<int>(d.rows_a());
  const auto ldb = static_cast<int>(d.rows_b());
  visit_precision(d.precision, [&](auto tag) {
    using T = decltype(tag);
    using S = sim::kernel_scalar_t<T>;
    const auto alpha = static_cast<S>(call.alpha);
    const auto beta = static_cast<S>(call.beta);
    if (d.op == core::KernelOp::Gemv) {
      device_.gemv<T>(d.trans_a, m, n, alpha, a, lda, b, beta, c, &stream);
    } else if (route != Route::GpuEmulated) {
      device_.gemm<T>(d.trans_a, d.trans_b, m, n, k, alpha, a, lda, b, ldb,
                      beta, c, m, &stream);
    } else if constexpr (std::is_same_v<T, double>) {
      // Operands crossed the link as fp64 and are sliced on the device, so
      // the measured span differs from the native arm by the kernel term.
      device_.gemm_emulated(d.trans_a, d.trans_b, m, n, k, alpha, a, lda, b,
                            ldb, beta, c, m, blas::slices_for_budget(d.budget),
                            &stream);
    } else {
      throw std::logic_error("Dispatcher: emulated route on a non-fp64 call");
    }
  });
}

// -- synchronous dispatch ----------------------------------------------------

void Dispatcher::run(Call call) {
  core::OpDesc& desc = call.desc;
  obs::Span span(
      desc.op == core::KernelOp::Gemm ? "dispatch.gemm" : "dispatch.gemv",
      obs::Category::Dispatch);
  std::lock_guard<std::mutex> lock(mutex_);
  if (desc.m <= 0 || desc.n <= 0) return;  // nothing to update
  desc.mode = effective_mode();
  const OperandRegions regions = operand_regions(call);
  const Decision decision = plan_locked(desc, gpu_supported(desc), regions);
  if (decision.route == Route::Gpu || decision.route == Route::GpuEmulated) {
    GpuJob job = enqueue_gpu_locked(decision, call);
    finish_gpu_job_locked(job, /*overlapped=*/false);
  } else {
    run_cpu_locked(decision, call, regions.c);
  }
}

void Dispatcher::run_cpu(const Decision& decision, const Call& call) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (call.desc.m <= 0 || call.desc.n <= 0) return;
  run_cpu_locked(decision, call, operand_regions(call).c);
}

void Dispatcher::run_cpu_locked(const Decision& decision, const Call& call,
                                const Region& out) {
  BucketKey key = bucket_key(call.desc);
  key.residency = decision.residency;
  ensure_seeded(key, call.desc);
  cpu_exec(call);
  note_host_output_locked(out);
  account_and_observe(call.desc, key, decision, cpu_cost(call.desc), 1);
}

void Dispatcher::run_coalesced(const std::vector<const Call*>& members) {
  obs::Span span("dispatch.coalesced_batch", obs::Category::Dispatch);
  std::lock_guard<std::mutex> lock(mutex_);
  if (members.empty()) return;
  const Call& head = *members.front();
  const core::OpDesc& desc = head.desc;
  if (desc.m <= 0 || desc.n <= 0) return;
  const int batch = static_cast<int>(members.size());
  const BucketKey key = bucket_key(desc);
  ensure_seeded(key, desc);

  visit_precision(desc.precision, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (kIsHalf<T>) {
      throw std::invalid_argument("Dispatcher: half calls do not coalesce");
    } else {
      std::vector<const T*> as, bs;
      std::vector<T*> cs;
      for (const Call* call : members) {
        as.push_back(static_cast<const T*>(call->a));
        bs.push_back(static_cast<const T*>(call->b));
        cs.push_back(static_cast<T*>(call->c));
      }
      const auto alpha = static_cast<T>(head.alpha);
      const auto beta = static_cast<T>(head.beta);
      const auto m = static_cast<int>(desc.m);
      const auto n = static_cast<int>(desc.n);
      const auto lda = static_cast<int>(desc.lda);
      if (desc.op == core::KernelOp::Gemm) {
        blas::gemm_batched<T>(desc.trans_a, desc.trans_b, m, n,
                              static_cast<int>(desc.k), alpha, as.data(), lda,
                              bs.data(), static_cast<int>(desc.ldb), beta,
                              cs.data(), static_cast<int>(desc.ldc), batch,
                              cpu_->pool(), cpu_->max_threads());
      } else {
        blas::gemv_batched<T>(desc.trans_a, m, n, alpha, as.data(), lda,
                              bs.data(), static_cast<int>(desc.incx), beta,
                              cs.data(), static_cast<int>(desc.incy), batch,
                              cpu_->pool(), cpu_->max_threads());
      }
    }
  });
  for (const Call* call : members) {
    note_host_output_locked(operand_regions(*call).c);
  }

  core::OpDesc batched = desc;
  batched.batch = batch;
  const double cost = model_.cpu_time(batched, /*iterations=*/1);

  Decision decision;
  decision.route = Route::CpuBatched;
  decision.reason = Reason::Coalesced;
  if (const BucketState* state = table_.find(key)) {
    decision.cpu_est_s = state->cpu.ewma_s;
    decision.gpu_est_s = state->gpu.ewma_s;
  }
  account_and_observe(desc, key, decision, cost, batch);
}

// -- GPU path ----------------------------------------------------------------

void Dispatcher::place_managed_locked(sim::Buffer& buffer,
                                      const Region& region, GpuJob& job) {
  const double bytes = static_cast<double>(buffer.bytes());
  if (tracking_enabled() && region.valid() &&
      residency_.resident_clean(region)) {
    // Pages were migrated by an earlier kernel; first touch is free.
    buffer.set_residency(sim::Residency::Device);
    job.h2d_skipped += bytes;
    count_residency_hit();
    return;
  }
  job.h2d_moved += bytes;  // fault-migrates inside the kernel enqueue
  if (tracking_enabled() && region.valid()) {
    residency_.note_upload(region);
    count_residency_miss();
  }
}

sim::Buffer Dispatcher::acquire_staging_locked(sim::MemKind kind,
                                              std::size_t bytes) {
  auto best = staging_free_.end();
  auto smallest = staging_free_.end();
  for (auto it = staging_free_.begin(); it != staging_free_.end(); ++it) {
    if (it->kind() != kind) continue;
    if (it->bytes() >= bytes &&
        (best == staging_free_.end() || it->bytes() < best->bytes())) {
      best = it;
    }
    if (smallest == staging_free_.end() || it->bytes() < smallest->bytes()) {
      smallest = it;
    }
  }
  const auto take = [this](auto it) {
    sim::Buffer buffer = std::move(*it);
    *it = std::move(staging_free_.back());
    staging_free_.pop_back();
    return buffer;
  };
  if (best != staging_free_.end()) return take(best);
  // A miss: every free buffer of this kind is too small. Free the smallest
  // first, so the list never holds more than the peak in flight.
  if (smallest != staging_free_.end()) take(smallest);
  return kind == sim::MemKind::Device ? device_.alloc_device(bytes)
                                      : device_.alloc_host(bytes);
}

Dispatcher::GpuJob Dispatcher::enqueue_gpu(const Decision& decision,
                                           const Call& call) {
  std::lock_guard<std::mutex> lock(mutex_);
  GpuJob job = enqueue_gpu_locked(decision, call);
  // The job outlives the lock: the kernel overwrites the device copy of
  // C, which stays dirty (no later enqueue takes it as resident) until
  // the join unpacks the result. run() joins under the same lock, so
  // nothing could see the dirty state and it skips both marks.
  if (tracking_enabled()) {
    job.dirty_out = operand_regions(call).c;
    residency_.note_device_write(job.dirty_out);
  }
  return job;
}

Dispatcher::GpuJob Dispatcher::enqueue_gpu_locked(const Decision& decision,
                                                  const Call& call) {
  obs::Span span("dispatch.gpu_enqueue", obs::Category::Dispatch);
  const core::OpDesc& desc = call.desc;
  GpuJob job;
  job.active = true;
  job.decision = decision;
  job.desc = desc;
  job.key = bucket_key(desc);
  job.key.residency = decision.residency;

  sim::Stream& s = gpu_stream_;
  job.submit_floor = std::max(s.tail(), device_.now());

  // Operands are staged tightly in their STORED shapes — the device
  // kernels consume the same layouts the transposes describe. GPU-BLOB
  // uploads all three structures (paper §III-B2), so C crosses the link
  // even when beta == 0 — matching the analytic cost exactly.
  const std::size_t es = model::bytes_of(desc.precision);
  const std::array<Dense, 3> shapes = dense_operands(desc);
  const std::array<const void*, 3> host{call.a, call.b, call.c};
  const OperandRegions regions = operand_regions(call);
  const std::array<const Region*, 3> footprint{&regions.a, &regions.b,
                                               &regions.c};

  // FirstTouch places operands in managed memory, where the kernel's
  // page-migration model moves only what is not already resident; the
  // other policies stage through pinned host buffers and explicit DMA.
  // Pinned and device staging buffers are recycled across jobs (managed
  // ones are not: their size and residency feed the USM cost model).
  const bool managed = config_.residency == ResidencyPolicy::FirstTouch;
  std::array<std::size_t, 3> bytes{};
  const auto pack = [&](std::size_t i, sim::Buffer& dst) {
    copy_dense(dst.data(), shapes[i].rows, host[i], shapes[i].ld, shapes[i],
               es);
  };
  {
    obs::Span stage(kStageSpan, obs::Category::Dispatch);
    job.buffers.reserve(6);  // no reallocation: references stay valid
    for (std::size_t i = 0; i < 3; ++i) {
      bytes[i] = shapes[i].bytes(es);
      job.buffers.push_back(
          managed ? device_.alloc_managed(bytes[i])
                  : acquire_staging_locked(sim::MemKind::HostPinned,
                                           bytes[i]));
    }
    if (managed) {
      for (std::size_t i = 0; i < 3; ++i) pack(i, job.buffers[i]);
    } else {
      for (std::size_t i = 0; i < 3; ++i) {
        job.buffers.push_back(
            acquire_staging_locked(sim::MemKind::Device, bytes[i]));
      }
    }
  }
  if (managed) {
    for (std::size_t i = 0; i < 3; ++i) {
      place_managed_locked(job.buffers[i], *footprint[i], job);
    }
  } else {
    // Each upload re-checks the tracker AT ENQUEUE TIME (not plan time),
    // so sequential enqueues within one queue cycle warm each other —
    // the second batch member sharing an A panel never re-charges it.
    const bool track = config_.residency == ResidencyPolicy::Track;
    for (std::size_t i = 0; i < 3; ++i) {
      sim::Buffer& pinned = job.buffers[i];
      sim::Buffer& device = job.buffers[3 + i];
      const Region& region = *footprint[i];
      const bool tracked = track && region.valid();
      if (tracked && residency_.resident_clean(region)) {
        // The device copy is current: no modelled DMA. The simulated
        // storage is still refreshed from host truth, packed straight
        // into the device buffer (a caching runtime would reuse its live
        // device buffer outright).
        obs::Span stage(kStageSpan, obs::Category::Dispatch);
        pack(i, device);
        job.h2d_skipped += static_cast<double>(bytes[i]);
        count_residency_hit();
        continue;
      }
      {
        obs::Span stage(kStageSpan, obs::Category::Dispatch);
        pack(i, pinned);
      }
      device_.memcpy_h2d_async(s, device, pinned, bytes[i]);
      job.h2d_moved += static_cast<double>(bytes[i]);
      if (tracked) {
        residency_.note_upload(region);
        count_residency_miss();
      }
    }
  }
  sim::Buffer* dev = job.buffers.data() + (managed ? 0 : 3);
  launch_kernel(decision.route, call, dev[0], dev[1], dev[2], s);
  if (managed) {
    // The host reads the result at the join; charge the page writeback
    // on the stream so it lands inside this job's measured span
    // (SimGpu::host_access_managed would charge the host clock instead).
    s.enqueue(device_.link_model().usm_writeback_time(
                  static_cast<double>(bytes[2])),
              "usm-writeback");
  } else {
    device_.memcpy_d2h_async(s, job.buffers[2], job.buffers[5], bytes[2]);
  }
  job.done = s.tail();

  // Buffer storage addresses are stable across Buffer moves, so the raw
  // pointer captured here stays valid inside job.buffers.
  job.unpack = [staged = job.buffers[2].data(), out = call.c,
                shape = shapes[2], es]() {
    copy_dense(out, shape.ld, staged, shape.rows, shape, es);
  };
  return job;
}

void Dispatcher::finish_gpu_job_locked(GpuJob& job, bool overlapped) {
  if (!job.active) return;
  obs::Span span("dispatch.gpu_join", obs::Category::Dispatch);
  span.set_virtual(job.submit_floor, job.done - job.submit_floor);
  // Join only this job's completion time — later enqueues on the stream
  // must not be charged to this call (cudaEvent-style sync, not a full
  // stream synchronize).
  device_.clock().advance_to(job.done);
  {
    obs::Span stage(kStageSpan, obs::Category::Dispatch);
    if (job.unpack) job.unpack();
    for (sim::Buffer& buffer : job.buffers) {
      if (buffer.kind() != sim::MemKind::Managed) {
        staging_free_.push_back(std::move(buffer));
      }
    }
    job.buffers.clear();
  }
  // The device result has been unpacked into the client buffer: host and
  // device copies agree, so a dirty output is resident-clean again — the
  // next iteration of a solver that feeds C/y back in uploads nothing.
  residency_.note_device_result(job.dirty_out);
  if (overlapped) {
    counters_.overlapped_gpu_calls.fetch_add(1, std::memory_order_relaxed);
  }
  const double cost = job.done - job.submit_floor;
  account_and_observe(job.desc, job.key, job.decision, cost, 1,
                      job.h2d_moved, job.h2d_skipped);
  job.unpack = nullptr;
  job.active = false;
}

void Dispatcher::finish_gpu_job(GpuJob& job, bool overlapped) {
  std::lock_guard<std::mutex> lock(mutex_);
  finish_gpu_job_locked(job, overlapped);
}

sim::MemoryTracker Dispatcher::device_memory() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return device_.memory();
}

// -- cost oracle -------------------------------------------------------------

Dispatcher::Costs Dispatcher::modelled_costs(const core::OpDesc& desc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Costs costs;
  costs.cpu_s = cpu_cost(desc);
  if (gpu_supported(desc)) {
    const auto gpu = model_.gpu_time(desc, /*iterations=*/1);
    costs.gpu_s = gpu.value_or(std::numeric_limits<double>::infinity());
    if (std::isfinite(costs.gpu_s) && emulation_eligible(desc)) {
      const int slices = blas::slices_for_budget(desc.budget);
      costs.emu_s = costs.gpu_s + model_.emulated_kernel_time(desc, slices) -
                    model_.kernel_time(desc);
    }
  } else {
    costs.gpu_s = std::numeric_limits<double>::infinity();
  }
  return costs;
}

Route Dispatcher::oracle_route(const core::OpDesc& desc) const {
  const Costs costs = modelled_costs(desc);
  if (costs.emu_s < costs.cpu_s && costs.emu_s < costs.gpu_s) {
    return Route::GpuEmulated;
  }
  return costs.gpu_s < costs.cpu_s ? Route::Gpu : Route::Cpu;
}

// -- calibration -------------------------------------------------------------

CalibrationData Dispatcher::make_calibration() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CalibrationData data;
  data.personality = config_.personality.name;
  data.profile = config_.profile.name;
  data.nspace = config_.nspace;
  data.entries = table_.entries();
  data.blocking_f32 = tuned_f32_;
  data.blocking_f64 = tuned_f64_;
  return data;
}

void Dispatcher::apply_calibration(const CalibrationData& data) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, state] : data.entries) {
    table_.restore(key, state);
  }
  if (data.blocking_f32) tuned_f32_ = data.blocking_f32;
  if (data.blocking_f64) tuned_f64_ = data.blocking_f64;
  counters_.calibration_loads.fetch_add(1, std::memory_order_relaxed);
}

bool Dispatcher::save_calibration(const std::string& path) const {
  return save_calibration_file(path, make_calibration());
}

LoadStatus Dispatcher::load_calibration(const std::string& path) {
  const LoadResult result = load_calibration_file(
      path, config_.personality.name, config_.profile.name, config_.nspace);
  if (result.status == LoadStatus::Ok) {
    if (!result.warning.empty()) {
      std::fprintf(stderr, "blob-dispatch: %s\n", result.warning.c_str());
    }
    apply_calibration(result.data);
  }
  return result.status;
}

}  // namespace blob::dispatch
