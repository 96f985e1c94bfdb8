#pragma once
// Shared-memory parallel helpers.

#include <functional>

#include "core/types.hpp"

namespace mcmi {

/// Number of OpenMP threads the process will use.
int max_threads();

/// Index of the calling thread within the current parallel region
/// (0 outside any region).
int thread_id();

/// Run body(i) for i in [begin, end) with OpenMP dynamic scheduling.
/// `grain` controls the chunk size handed to each thread.  Without OpenMP
/// the bodies run serially in index order.
///
/// Exception-safe: an exception never leaves the parallel region.  Each one
/// is caught where it is thrown, bodies above the lowest failing index seen
/// so far are skipped, and after the loop the exception of the LOWEST
/// failing index is rethrown — the same one at any thread count and any
/// schedule (the serial loop would have stopped there too).
void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t)>& body,
                  index_t grain = 1);

}  // namespace mcmi
