#pragma once
// Simulated memory spaces.
//
// The simulator distinguishes the same allocation kinds GPU-BLOB uses
// (paper §III-B2):
//   * pageable host memory          (malloc)
//   * pinned host memory            (cudaMallocHost / hipHostMalloc)
//   * device memory                 (cudaMalloc)
//   * managed / unified memory      (cudaMallocManaged, USM)
// All storage is physically host RAM here — what differs is the *cost
// model* applied when data crosses the simulated link, and for managed
// buffers a residency state driving the page-migration model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace blob::sim {

enum class MemKind { HostPageable, HostPinned, Device, Managed };

const char* to_string(MemKind kind);

/// Where a managed buffer's pages currently live.
enum class Residency { Host, Device };

/// Error type for simulator misuse (freeing twice, wrong-space access...).
struct SimError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A tracked allocation in one of the simulated spaces. Created through
/// SimGpu; movable, non-copyable; RAII-releases its bytes from the
/// owning tracker.
class Buffer {
 public:
  Buffer() = default;
  Buffer(MemKind kind, std::size_t bytes, class MemoryTracker* tracker);
  ~Buffer();

  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] bool valid() const { return storage_ != nullptr; }
  [[nodiscard]] MemKind kind() const { return kind_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// Raw storage. For Device buffers this models device-side memory; the
  /// harness must move data with SimGpu::memcpy rather than poking it
  /// directly (tests may, to verify DMA correctness).
  [[nodiscard]] void* data() { return storage_.get(); }
  [[nodiscard]] const void* data() const { return storage_.get(); }

  template <typename T>
  [[nodiscard]] T* as() {
    return reinterpret_cast<T*>(storage_.get());
  }
  template <typename T>
  [[nodiscard]] const T* as() const {
    return reinterpret_cast<const T*>(storage_.get());
  }

  // Managed-buffer residency state (meaningful only for MemKind::Managed).
  [[nodiscard]] Residency residency() const { return residency_; }
  void set_residency(Residency r) { residency_ = r; }
  [[nodiscard]] bool device_dirty() const { return device_dirty_; }
  void set_device_dirty(bool dirty) { device_dirty_ = dirty; }

 private:
  void release();

  MemKind kind_ = MemKind::HostPageable;
  std::size_t bytes_ = 0;
  std::unique_ptr<std::byte[]> storage_;
  MemoryTracker* tracker_ = nullptr;
  Residency residency_ = Residency::Host;
  bool device_dirty_ = false;
};

/// Per-space allocation accounting (current and peak bytes, counts).
class MemoryTracker {
 public:
  void on_alloc(MemKind kind, std::size_t bytes);
  void on_free(MemKind kind, std::size_t bytes);

  [[nodiscard]] std::size_t current_bytes(MemKind kind) const;
  [[nodiscard]] std::size_t peak_bytes(MemKind kind) const;
  [[nodiscard]] std::size_t live_allocations(MemKind kind) const;
  /// Allocations made in this space since construction (frees aside).
  [[nodiscard]] std::size_t total_allocations(MemKind kind) const;

 private:
  struct Space {
    std::size_t current = 0;
    std::size_t peak = 0;
    std::size_t live = 0;
    std::size_t allocations = 0;
  };
  Space& space(MemKind kind);
  [[nodiscard]] const Space& space(MemKind kind) const;
  Space spaces_[4];
};

}  // namespace blob::sim
