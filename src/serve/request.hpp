#pragma once
// Serving-layer request vocabulary.
//
// A ServeRequest is one BLAS call travelling through the DeviceFleet:
// the dispatcher's Call record (descriptor with the producer's error
// budget, scalars, operands borrowed until the future resolves), the
// request class that picks its SLO, and the routing
// stamps (chosen device, modelled cost estimate, deadline) added at
// admission. The worker resolves the promise with a ServeResult that
// says what happened — completed on which device, or shed because its
// deadline had already passed when it reached the front of the queue.

#include <cstdint>
#include <future>

#include "dispatch/dispatcher.hpp"

namespace blob::serve {

/// Per-request service class; each maps to one SLO deadline.
enum class RequestClass {
  Interactive,  ///< tight deadline (an end-user is waiting)
  Batch,        ///< loose deadline (pipeline traffic)
  BestEffort,   ///< no deadline — never shed, absorbs spare capacity
};

inline const char* to_string(RequestClass cls) {
  switch (cls) {
    case RequestClass::Interactive:
      return "interactive";
    case RequestClass::Batch:
      return "batch";
    case RequestClass::BestEffort:
      return "besteffort";
  }
  return "?";
}

/// Deadlines per class, in wall milliseconds from admission. 0 disables
/// the deadline for that class (nothing in it is ever shed).
struct SloPolicy {
  double interactive_ms = 50.0;
  double batch_ms = 500.0;

  [[nodiscard]] double deadline_ms(RequestClass cls) const {
    switch (cls) {
      case RequestClass::Interactive:
        return interactive_ms;
      case RequestClass::Batch:
        return batch_ms;
      case RequestClass::BestEffort:
        return 0.0;
    }
    return 0.0;
  }
};

enum class Outcome {
  Completed,
  Shed,  ///< past its deadline at dequeue; the output buffer is untouched
};

/// What the future resolves to.
struct ServeResult {
  Outcome outcome = Outcome::Completed;
  int device = 0;           ///< device that executed (or would have)
  std::uint64_t id = 0;     ///< fleet-wide admission sequence number
  double modelled_s = 0.0;  ///< router's modelled best-route cost estimate
  std::int64_t latency_ns = 0;  ///< admission -> resolution wall latency
};

/// One queued call. Moved (never copied) through the sharded queue; the
/// promise makes it move-only by construction. The fleet serves f32/f64
/// (half precisions stay on the single-device replay path: their CPU
/// fallback shares one global accumulator config, which would serialise
/// a fleet).
struct ServeRequest {
  dispatch::Call call;
  RequestClass cls = RequestClass::BestEffort;
  std::uint64_t id = 0;         ///< fleet-wide admission sequence
  int device = 0;               ///< router's pick, set at admission
  double est_s = 0.0;           ///< modelled best-route cost on that device
  std::int64_t submit_ns = 0;   ///< steady-clock ns at admission
  std::int64_t deadline_ns = 0; ///< absolute steady-clock deadline (0 = none)
  std::promise<ServeResult> done;
};

}  // namespace blob::serve
