#pragma once
// Shared-memory parallel helpers.
//
// The paper runs the MCMC preconditioner as a hybrid MPI+OpenMP code (2 ranks
// x 4 threads on a single node).  No MPI runtime is available here, so the
// same decomposition is modelled by ChainPartition: work items (Markov
// chains, matrix rows) are split into `ranks` contiguous blocks, each block
// processed by OpenMP threads.  Because every chain draws from an RNG stream
// keyed by its global index, the partitioning — and thread scheduling inside
// it — never changes the sampled values, only who computes them.

#include <algorithm>
#include <functional>

#include "core/error.hpp"
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

/// Rank-like decomposition of a 1-D range, mirroring the paper's
/// 2-rank MPI layout on one node.
struct ChainPartition {
  index_t total = 0;  ///< total number of work items
  index_t ranks = 1;  ///< number of rank-like blocks

  ChainPartition(index_t total_items, index_t num_ranks)
      : total(total_items), ranks(num_ranks) {
    MCMI_CHECK(total_items >= 0, "negative work count");
    MCMI_CHECK(num_ranks >= 1, "need at least one rank");
  }

  /// First item owned by `rank`.
  [[nodiscard]] index_t begin(index_t rank) const {
    return rank * (total / ranks) + std::min(rank, total % ranks);
  }
  /// One past the last item owned by `rank`.
  [[nodiscard]] index_t end(index_t rank) const { return begin(rank + 1); }
  /// Number of items owned by `rank`.
  [[nodiscard]] index_t size(index_t rank) const {
    return end(rank) - begin(rank);
  }
};

}  // namespace mcmi
