#include "simgpu/memory.hpp"

#include <algorithm>

namespace blob::sim {

const char* to_string(MemKind kind) {
  switch (kind) {
    case MemKind::HostPageable:
      return "host-pageable";
    case MemKind::HostPinned:
      return "host-pinned";
    case MemKind::Device:
      return "device";
    case MemKind::Managed:
      return "managed";
  }
  return "?";
}

// make_unique value-initialises the array: every buffer starts zeroed,
// in one pass.
Buffer::Buffer(MemKind kind, std::size_t bytes, MemoryTracker* tracker)
    : kind_(kind),
      bytes_(bytes),
      storage_(std::make_unique<std::byte[]>(bytes)),
      tracker_(tracker) {
  if (tracker_ != nullptr) tracker_->on_alloc(kind_, bytes_);
}

Buffer::~Buffer() { release(); }

Buffer::Buffer(Buffer&& other) noexcept
    : kind_(other.kind_),
      bytes_(other.bytes_),
      storage_(std::move(other.storage_)),
      tracker_(other.tracker_),
      residency_(other.residency_),
      device_dirty_(other.device_dirty_) {
  other.tracker_ = nullptr;
  other.bytes_ = 0;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    release();
    kind_ = other.kind_;
    bytes_ = other.bytes_;
    storage_ = std::move(other.storage_);
    tracker_ = other.tracker_;
    residency_ = other.residency_;
    device_dirty_ = other.device_dirty_;
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void Buffer::release() {
  if (storage_ != nullptr && tracker_ != nullptr) {
    tracker_->on_free(kind_, bytes_);
  }
  storage_.reset();
  tracker_ = nullptr;
  bytes_ = 0;
}

MemoryTracker::Space& MemoryTracker::space(MemKind kind) {
  return spaces_[static_cast<int>(kind)];
}

const MemoryTracker::Space& MemoryTracker::space(MemKind kind) const {
  return spaces_[static_cast<int>(kind)];
}

void MemoryTracker::on_alloc(MemKind kind, std::size_t bytes) {
  Space& s = space(kind);
  s.current += bytes;
  s.peak = std::max(s.peak, s.current);
  ++s.live;
  ++s.allocations;
}

void MemoryTracker::on_free(MemKind kind, std::size_t bytes) {
  Space& s = space(kind);
  if (bytes > s.current || s.live == 0) {
    throw SimError("MemoryTracker: free without matching alloc");
  }
  s.current -= bytes;
  --s.live;
}

std::size_t MemoryTracker::current_bytes(MemKind kind) const {
  return space(kind).current;
}

std::size_t MemoryTracker::peak_bytes(MemKind kind) const {
  return space(kind).peak;
}

std::size_t MemoryTracker::live_allocations(MemKind kind) const {
  return space(kind).live;
}

std::size_t MemoryTracker::total_allocations(MemKind kind) const {
  return space(kind).allocations;
}

}  // namespace blob::sim
