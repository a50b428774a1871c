#pragma once
// Data-residency tracking at the cblas seam.
//
// The paper's Transfer-Once numbers (§III-D) assume the programmer knows
// operands already live on the device; the TACC auto-offload line
// (arXiv:2501.00279, arXiv:2404.13195) derives that knowledge at runtime
// by intercepting BLAS calls and tracking which host regions have a
// device copy. ResidencyTracker is that piece: a pointer-interval map
// over host operand regions recording the per-device copy state of each
// byte range. The dispatcher populates it when it copies an operand to
// the simulated GPU and invalidates it when a later call writes the
// region, so repeated calls on the same matrices stop being priced (and
// charged) for transfers that a caching runtime would never re-issue.
//
// States (per interval; absent = host-only, no device copy):
//  * resident-clean — the device copy matches the host bytes. Reads of a
//    fully-clean region skip the H2D DMA entirely.
//  * resident-dirty — the device holds a NEWER result than the host: the
//    output of a job handed out by Dispatcher::enqueue_gpu that is not
//    joined yet. Dirty regions never satisfy a clean lookup. A
//    synchronous Dispatcher::run enqueues and joins under one lock, so
//    nothing can observe its output mid-flight and it never marks it.
//
// The tracker sees only writes performed through the dispatcher (kernel
// outputs); host stores that bypass the BLAS seam are invisible, exactly
// as in the interception-based systems this models. Correctness never
// depends on the tracker: the simulated device always computes from the
// current host bytes, so a stale entry can only mis-price a call, never
// corrupt a result.
//
// Regions describe the exact stored footprint of an operand. A tightly
// packed operand is one contiguous chunk; an ld-padded matrix is a
// strided sequence of per-column chunks so the inter-column padding (and
// any neighbouring submatrix sharing the same leading dimension) is
// never claimed or invalidated by mistake. Blocked factorizations rely
// on this: panel writes must not knock out the residency of the
// byte-disjoint trailing submatrix they interleave with.

#include <cstddef>
#include <cstdint>
#include <map>

namespace blob::dispatch {

/// How the dispatcher derives and exploits residency.
enum class ResidencyPolicy {
  Off,         ///< price every call as if nothing were resident (legacy)
  Track,       ///< explicit-DMA tracking: clean operands skip the upload
  FirstTouch,  ///< USM placement: operands fault-migrate on first kernel
               ///< touch (simgpu page-migration model); clean operands
               ///< are already device-resident and migrate nothing
};

const char* to_string(ResidencyPolicy policy);

/// The stored footprint of one operand: `count` chunks of `bytes` bytes
/// each, the chunk starts `stride` bytes apart. A contiguous range is
/// the degenerate single-chunk case (stride 0, count 1), so the common
/// aggregate init `Region{ptr, bytes}` keeps its old meaning.
struct Region {
  const void* ptr = nullptr;
  std::size_t bytes = 0;   ///< bytes per chunk
  std::size_t stride = 0;  ///< byte distance between chunk starts
  std::size_t count = 1;   ///< number of chunks

  [[nodiscard]] bool valid() const {
    return ptr != nullptr && bytes > 0 && count > 0;
  }
  [[nodiscard]] std::size_t total_bytes() const {
    return valid() ? bytes * count : 0;
  }
};

/// Stored footprint of an ld-strided column-major matrix. Tightly packed
/// (ld == rows) collapses to a single chunk; a padded matrix is one
/// chunk per column so the padding bytes between columns stay untracked.
Region matrix_region(const void* ptr, std::size_t elem_bytes,
                     std::int64_t ld, std::int64_t rows, std::int64_t cols);

/// Stored footprint of a strided vector.
Region vector_region(const void* ptr, std::size_t elem_bytes,
                     std::int64_t len, std::int64_t inc);

/// The operand regions of one call: A, B (GEMM) or x (GEMV), C or y.
struct OperandRegions {
  Region a;
  Region b;
  Region c;
};

/// Interval map host region -> device copy state. Not thread-safe; the
/// dispatcher mutates it under its own mutex.
class ResidencyTracker {
 public:
  /// A host region was copied to (or fault-migrated onto) the device:
  /// mark [ptr, ptr+bytes) resident-clean, splitting/overwriting any
  /// overlapping intervals.
  void note_upload(const Region& region);

  /// A device kernel is about to overwrite the device copy of `region`
  /// (the C/y output of a handed-out GPU job, until it is joined):
  /// resident-dirty.
  void note_device_write(const Region& region);

  /// The device result for `region` has been downloaded and unpacked
  /// into the host buffer — host and device copies agree again.
  void note_device_result(const Region& region);

  /// The host wrote `region` (a CPU-routed output, or any seam-visible
  /// store): every interval overlapping one of its chunks loses the
  /// overlapping part (partial overlaps are split; the non-overlapping
  /// remainder keeps its state). Returns the number of intervals
  /// invalidated, summed over chunks.
  std::size_t note_host_write(const Region& region);

  struct SwapResult {
    std::size_t mirrored = 0;     ///< column pairs mirrored on the device
    std::size_t invalidated = 0;  ///< intervals invalidated
  };

  /// The host interchanged row `a` with the row of the same shape that
  /// starts at `b` (chunk i of one swapped with chunk i of the other, a
  /// pivoting row swap). A pair whose chunks are both resident-clean is
  /// mirrored on the device copies (a device laswp keeps them clean);
  /// every other pair is a host write of both chunks. Both rows are
  /// walked in one forward pass; chunks no interval overlaps cost no
  /// erase.
  SwapResult note_host_swap(const Region& a, const void* b);

  /// True when EVERY byte of EVERY chunk of `region` is covered by
  /// resident-clean intervals. Partial coverage (or any dirty byte) is a
  /// miss — the dispatcher re-uploads whole operands, never slices.
  [[nodiscard]] bool resident_clean(const Region& region) const;

  /// Number of distinct intervals currently tracked (tests).
  [[nodiscard]] std::size_t interval_count() const { return map_.size(); }

  void clear() { map_.clear(); }

 private:
  enum class CopyState { ResidentClean, ResidentDirty };

  struct Node {
    std::uintptr_t end = 0;  ///< one past the last byte
    CopyState state = CopyState::ResidentClean;
  };

  /// Forward walk over the map for chunks probed in address order.
  class Cursor;

  void mark(std::uintptr_t begin, std::uintptr_t end, CopyState state);
  /// Remove [begin, end) from the map, splitting boundary intervals.
  /// Returns how many intervals overlapped.
  std::size_t erase_range(std::uintptr_t begin, std::uintptr_t end);

  std::map<std::uintptr_t, Node> map_;  ///< key = interval begin
};

}  // namespace blob::dispatch
