#include "core/parallel.hpp"

#include <atomic>
#include <exception>
#include <mutex>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mcmi {

#ifdef _OPENMP
int max_threads() { return omp_get_max_threads(); }

int thread_id() { return omp_get_thread_num(); }
#else
int max_threads() { return 1; }

int thread_id() { return 0; }
#endif

void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t)>& body, index_t grain) {
  if (end <= begin) return;
  (void)grain;  // only consumed by the omp pragma

  // Lowest failing index so far (`end` while none failed) and its exception.
  // A body above it cannot change which exception is rethrown, so it is
  // skipped; every body below it still runs.
  std::atomic<index_t> lowest_failure{end};
  std::exception_ptr failure;
  std::mutex failure_mutex;

#pragma omp parallel for schedule(dynamic, grain)
  for (index_t i = begin; i < end; ++i) {
    if (i > lowest_failure.load()) continue;
    try {
      body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (i < lowest_failure.load()) {
        lowest_failure.store(i);
        failure = std::current_exception();
      }
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace mcmi
