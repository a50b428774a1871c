// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload offload-mix|serve-small|factorize --seed N
//             --seconds S --trace 0|1
//
// Prints a host fingerprint, workload notes, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "blas/cblas.hpp"
#include "blas/library.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value != "0";
      } else {
        throw std::invalid_argument("unknown option " + key);
      }
    }
    if (argc % 2 != 1 || !have_workload || options.seconds <= 0.0) {
      throw std::invalid_argument(
          "usage: perfbench --workload W --seed N --seconds S --trace 0|1");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // Hook-free cblas calls (the references) run on a one-thread library,
  // so no idle pool threads sit beside the workload's own.
  blob::blas::cblas_set_library(blob::blas::generic_personality(), 1);
  try {
    if (options.workload == "offload-mix") {
      return perfbench::run_offload_mix(options);
    }
    if (options.workload == "serve-small") {
      return perfbench::run_serve_small(options);
    }
    if (options.workload == "factorize") {
      return perfbench::run_factorize(options);
    }
    std::cerr << "error: unknown workload " << options.workload << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
