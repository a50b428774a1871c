#include "dispatch/residency.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

namespace blob::dispatch {

const char* to_string(ResidencyPolicy policy) {
  switch (policy) {
    case ResidencyPolicy::Off:
      return "off";
    case ResidencyPolicy::Track:
      return "track";
    case ResidencyPolicy::FirstTouch:
      return "first-touch";
  }
  return "?";
}

Region matrix_region(const void* ptr, std::size_t elem_bytes,
                     std::int64_t ld, std::int64_t rows, std::int64_t cols) {
  if (ptr == nullptr || rows <= 0 || cols <= 0) return {};
  if (ld < rows) ld = rows;
  if (ld == rows) {
    // Tightly packed: one contiguous chunk covering the whole matrix.
    return {ptr, elem_bytes * static_cast<std::size_t>(rows * cols)};
  }
  // Padded: one chunk per column so the ld padding (which may belong to
  // a byte-interleaved neighbouring submatrix) stays untracked.
  return {ptr, elem_bytes * static_cast<std::size_t>(rows),
          elem_bytes * static_cast<std::size_t>(ld),
          static_cast<std::size_t>(cols)};
}

Region vector_region(const void* ptr, std::size_t elem_bytes,
                     std::int64_t len, std::int64_t inc) {
  if (ptr == nullptr || len <= 0) return {};
  if (inc < 1) inc = 1;
  const auto span = static_cast<std::size_t>((len - 1) * inc + 1);
  return {ptr, elem_bytes * span};
}

std::size_t ResidencyTracker::erase_range(std::uintptr_t begin,
                                          std::uintptr_t end) {
  if (begin >= end) return 0;
  std::size_t touched = 0;
  auto it = map_.lower_bound(begin);
  // The interval starting before `begin` may still reach into the range.
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > begin) it = prev;
  }
  while (it != map_.end() && it->first < end) {
    const std::uintptr_t ib = it->first;
    const std::uintptr_t ie = it->second.end;
    const CopyState st = it->second.state;
    ++touched;
    it = map_.erase(it);
    if (ib < begin) map_.emplace(ib, Node{begin, st});
    if (ie > end) it = map_.emplace(end, Node{ie, st}).first;
  }
  return touched;
}

void ResidencyTracker::mark(std::uintptr_t begin, std::uintptr_t end,
                            CopyState state) {
  if (begin >= end) return;
  erase_range(begin, end);
  // Coalesce with equal-state neighbours so long-lived panels stay one
  // interval no matter how they were assembled.
  auto it = map_.lower_bound(begin);
  if (it != map_.end() && it->first == end && it->second.state == state) {
    end = it->second.end;
    map_.erase(it);
  }
  it = map_.lower_bound(begin);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end == begin && prev->second.state == state) {
      prev->second.end = end;
      return;
    }
  }
  map_.emplace(begin, Node{end, state});
}

namespace {

// Invoke fn(begin, end) for each chunk of the region, in address order.
template <typename Fn>
void for_each_chunk(const Region& region, Fn&& fn) {
  auto base = reinterpret_cast<std::uintptr_t>(region.ptr);
  for (std::size_t i = 0; i < region.count; ++i) {
    fn(base, base + region.bytes);
    base += region.stride;
  }
}

}  // namespace

void ResidencyTracker::note_upload(const Region& region) {
  if (!region.valid()) return;
  for_each_chunk(region, [this](std::uintptr_t b, std::uintptr_t e) {
    mark(b, e, CopyState::ResidentClean);
  });
}

void ResidencyTracker::note_device_write(const Region& region) {
  if (!region.valid()) return;
  for_each_chunk(region, [this](std::uintptr_t b, std::uintptr_t e) {
    mark(b, e, CopyState::ResidentDirty);
  });
}

void ResidencyTracker::note_device_result(const Region& region) {
  if (!region.valid()) return;
  for_each_chunk(region, [this](std::uintptr_t b, std::uintptr_t e) {
    mark(b, e, CopyState::ResidentClean);
  });
}

std::size_t ResidencyTracker::note_host_write(const Region& region) {
  if (!region.valid()) return 0;
  std::size_t touched = 0;
  for_each_chunk(region, [this, &touched](std::uintptr_t b, std::uintptr_t e) {
    touched += erase_range(b, e);
  });
  return touched;
}

/// Probes chunks in non-decreasing address order, each resuming where
/// the last one stopped. Consecutive chunks of a padded operand are
/// usually a few intervals apart, so a short forward step replaces the
/// tree search; a longer gap falls back to one search.
class ResidencyTracker::Cursor {
  using Map = std::map<std::uintptr_t, Node>;

 public:
  Cursor(const Map& map, std::uintptr_t pos)
      : map_(map), it_(search(pos)) {}

  /// Every byte of [begin, end) is covered by resident-clean intervals.
  bool clean(std::uintptr_t begin, std::uintptr_t end) {
    seek(begin);
    std::uintptr_t pos = begin;
    for (auto it = it_; it != map_.end() && it->first <= pos; ++it) {
      if (it->second.state != CopyState::ResidentClean) return false;
      pos = it->second.end;
      if (pos >= end) return true;
    }
    return false;  // a coverage gap
  }

  /// Some interval overlaps [begin, end).
  bool touches(std::uintptr_t begin, std::uintptr_t end) {
    seek(begin);
    return it_ != map_.end() && it_->first < end;
  }

 private:
  static constexpr int kMaxSteps = 2;

  /// The first interval that ends after `pos`.
  Map::const_iterator search(std::uintptr_t pos) const {
    auto it = map_.upper_bound(pos);
    if (it != map_.begin() && std::prev(it)->second.end > pos) --it;
    return it;
  }

  void seek(std::uintptr_t pos) {
    for (int step = 0; it_ != map_.end() && it_->second.end <= pos; ++step) {
      if (step == kMaxSteps) {
        it_ = search(pos);
        return;
      }
      ++it_;
    }
  }

  const Map& map_;
  Map::const_iterator it_;
};

namespace {

/// No chunk of row `a` overlaps another chunk of `a` or any chunk of the
/// same-shaped row starting `d` bytes after it.
bool rows_disjoint(const Region& a, std::intptr_t d) {
  const auto bytes = static_cast<std::intptr_t>(a.bytes);
  if (a.count == 1) return d >= bytes || -d >= bytes;
  const auto stride = static_cast<std::intptr_t>(a.stride);
  if (stride < bytes) return false;
  // Chunk i of `a` meets chunk i + k of `b` when |d + k * stride| < bytes;
  // the nearest k to -d / stride decides.
  const auto last = static_cast<std::intptr_t>(a.count - 1);
  std::intptr_t k = -d / stride;
  if (-d % stride < 0) --k;  // floor
  k = std::clamp(k, -last, last);
  for (const std::intptr_t kk : {k, std::min(k + 1, last)}) {
    const std::intptr_t gap = d + kk * stride;
    if (gap < bytes && -gap < bytes) return false;
  }
  return true;
}

}  // namespace

ResidencyTracker::SwapResult ResidencyTracker::note_host_swap(
    const Region& a, const void* b) {
  SwapResult result;
  if (!a.valid() || b == nullptr) return result;
  const auto base_a = reinterpret_cast<std::uintptr_t>(a.ptr);
  const auto base_b = reinterpret_cast<std::uintptr_t>(b);
  const auto distance = static_cast<std::intptr_t>(base_b - base_a);
  if (!rows_disjoint(a, distance)) {
    // Overlapping chunks: each pair sees the pairs before it applied.
    for (std::size_t i = 0; i < a.count; ++i) {
      const Region ca{static_cast<const char*>(a.ptr) + i * a.stride,
                      a.bytes};
      const Region cb{static_cast<const char*>(b) + i * a.stride, a.bytes};
      if (resident_clean(ca) && resident_clean(cb)) {
        ++result.mirrored;
        continue;
      }
      result.invalidated += note_host_write(ca);
      result.invalidated += note_host_write(cb);
    }
    return result;
  }
  // Disjoint chunks: a pair's fate depends only on its own bytes, so all
  // pairs are probed against the map as it stands, then the doomed
  // chunks that hold any interval are erased. Erasing one chunk leaves
  // the count of intervals overlapping another disjoint chunk unchanged,
  // so the total matches erasing pair by pair.
  std::vector<std::uintptr_t> doomed;  // chunk starts
  Cursor row_a(map_, base_a);
  Cursor row_b(map_, base_b);
  for (std::size_t i = 0; i < a.count; ++i) {
    const std::uintptr_t pa = base_a + i * a.stride;
    const std::uintptr_t pb = base_b + i * a.stride;
    if (row_a.clean(pa, pa + a.bytes) && row_b.clean(pb, pb + a.bytes)) {
      ++result.mirrored;
      continue;
    }
    if (row_a.touches(pa, pa + a.bytes)) doomed.push_back(pa);
    if (row_b.touches(pb, pb + a.bytes)) doomed.push_back(pb);
  }
  for (const std::uintptr_t p : doomed) {
    result.invalidated += erase_range(p, p + a.bytes);
  }
  return result;
}

bool ResidencyTracker::resident_clean(const Region& region) const {
  if (!region.valid()) return false;
  Cursor cursor(map_, reinterpret_cast<std::uintptr_t>(region.ptr));
  bool clean = true;
  for_each_chunk(region, [&](std::uintptr_t begin, std::uintptr_t end) {
    clean = clean && cursor.clean(begin, end);
  });
  return clean;
}

}  // namespace blob::dispatch
