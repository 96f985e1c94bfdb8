// Serving-layer tests: the content-addressed ArtifactStore (keying,
// collision handling, LRU+byte eviction, warm swap) and the SolveService
// (admission, priorities, coalesced builds, warm-path bit-identity,
// cross-thread cancellation, clean shutdown).  Everything runs on small
// gen/ matrices so the suite stays fast under the sanitizer job.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "gen/laplace.hpp"
#include "gen/plasma.hpp"
#include "mcmc/inverter.hpp"
#include "serve/artifact_store.hpp"
#include "serve/solve_service.hpp"
#include "solve/fault_injection.hpp"
#include "solve/orchestrator.hpp"
#include "sparse/csr.hpp"

namespace mcmi::serve {
namespace {

std::vector<real_t> random_rhs(index_t n, u64 seed) {
  Xoshiro256 rng = make_stream(seed);
  std::vector<real_t> b(static_cast<std::size_t>(n));
  for (real_t& v : b) v = normal01(rng);
  return b;
}

/// Cheap but Neumann-convergent MCMC parameters for small Laplacians.
McmcParams fast_params() { return {1.0, 0.25, 0.125}; }

ServiceOptions fast_service_options() {
  ServiceOptions opts;
  opts.workers = 2;
  opts.mcmc_params = fast_params();
  return opts;
}

// ---------------------------------------------------------------------------
// Fingerprinting.

TEST(ContentFingerprint, DistinctMatricesGetDistinctFingerprints) {
  const CsrMatrix a = laplace_2d(8);
  const CsrMatrix b = laplace_2d(9);
  const CsrMatrix c = plasma_a00512();
  EXPECT_NE(a.content_fingerprint(), b.content_fingerprint());
  EXPECT_NE(a.content_fingerprint(), c.content_fingerprint());
  EXPECT_NE(b.content_fingerprint(), c.content_fingerprint());
}

TEST(ContentFingerprint, SingleValueBitFlipChangesFingerprint) {
  CsrMatrix a = laplace_2d(8);
  const u64 before = a.content_fingerprint();
  a.values()[3] = std::nextafter(a.values()[3], 1e30);
  EXPECT_NE(before, a.content_fingerprint());
}

TEST(ContentFingerprint, CopiesShareFingerprintAndContent) {
  const CsrMatrix a = laplace_2d(8);
  const CsrMatrix b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.content_fingerprint(), b.content_fingerprint());
  EXPECT_TRUE(a.same_content(b));
  EXPECT_FALSE(a.same_content(laplace_2d(9)));
}

// ---------------------------------------------------------------------------
// ArtifactStore.

TEST(ArtifactStore, InternIsFindOrCreate) {
  ArtifactStore store;
  const CsrMatrix a = laplace_2d(8);
  auto first = store.intern(a);
  auto second = store.intern(a);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);
  EXPECT_EQ(store.size(), 1u);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);  // the creating intern
  EXPECT_EQ(stats.hits, 1u);    // the second intern
}

TEST(ArtifactStore, EvictsLeastRecentlyUsedByEntryCount) {
  StoreLimits limits;
  limits.max_entries = 2;
  ArtifactStore store{limits};
  const CsrMatrix a = laplace_2d(6);
  const CsrMatrix b = laplace_2d(7);
  const CsrMatrix c = laplace_2d(8);
  const u64 fa = a.content_fingerprint();
  const u64 fb = b.content_fingerprint();
  const u64 fc = c.content_fingerprint();

  auto ea = store.intern(a);
  (void)store.intern(b);
  (void)store.intern(a);  // touch a: b becomes the LRU victim
  (void)store.intern(c);  // evicts b

  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains(fa));
  EXPECT_FALSE(store.contains(fb));
  EXPECT_TRUE(store.contains(fc));
  EXPECT_EQ(store.stats().evictions, 1u);
  // MRU-first order: c was inserted last, a was touched before it.
  const std::vector<u64> order = store.lru_fingerprints();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], fc);
  EXPECT_EQ(order[1], fa);
  // The evicted entry's shared_ptr keeps working for existing holders.
  EXPECT_TRUE(ea->matrix()->same_content(a));
}

TEST(ArtifactStore, EvictsByByteBudget) {
  StoreLimits limits;
  limits.max_bytes = 1;  // nothing fits next to anything else
  ArtifactStore store{limits};
  (void)store.intern(laplace_2d(6));
  (void)store.intern(laplace_2d(7));
  // The newest entry always stays (the budget never evicts down to zero).
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_TRUE(store.contains(laplace_2d(7).content_fingerprint()));
}

TEST(ArtifactStore, FingerprintCollisionIsDetectedNotServed) {
  ArtifactStore store;
  const CsrMatrix a = laplace_2d(6);
  const CsrMatrix b = laplace_2d(7);
  const u64 fa = a.content_fingerprint();
  (void)store.intern(a);

  // Force the collision through the keyed lookup: ask for b under a's
  // fingerprint, as if the 64-bit hash had collided.
  auto hit = store.find(fa, b);
  EXPECT_EQ(hit, nullptr);
  EXPECT_EQ(store.stats().collisions, 1u);
  // The honest entry is untouched and still served.
  EXPECT_NE(store.find(fa, a), nullptr);
}

TEST(ArtifactStore, SwapInPublishesTunedPreconditioner) {
  ArtifactStore store;
  const CsrMatrix a = laplace_2d(6);
  auto entry = store.intern(a);
  EXPECT_EQ(entry->state(), BuildState::kCold);
  EXPECT_EQ(entry->tuned(), nullptr);

  ASSERT_TRUE(entry->try_begin_build());
  EXPECT_FALSE(entry->try_begin_build());  // slot claimed exactly once
  EXPECT_EQ(entry->state(), BuildState::kBuilding);

  McmcInverter inverter(a, fast_params());
  auto tuned = std::make_shared<SparseApproximateInverse>(inverter.compute(),
                                                          "mcmc");
  const std::size_t cold_bytes = store.bytes();
  store.swap_in(entry, tuned, fast_params());

  EXPECT_EQ(entry->state(), BuildState::kTuned);
  EXPECT_EQ(entry->tuned(), tuned);
  EXPECT_EQ(entry->tuned_params().alpha, fast_params().alpha);
  EXPECT_EQ(store.stats().swaps, 1u);
  EXPECT_GT(store.bytes(), cold_bytes);  // tuned P now accounted
}

TEST(ArtifactStore, FailedBuildRetiresPermanently) {
  ArtifactStore store;
  auto entry = store.intern(laplace_2d(6));
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed();
  EXPECT_EQ(entry->state(), BuildState::kFailed);
  EXPECT_FALSE(entry->try_begin_build());  // nobody retries
}

TEST(ArtifactStore, TransientFailureOpensBreakerIntoRetryWait) {
  ArtifactStore store;
  auto entry = store.intern(laplace_2d(6));
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed(BuildStatus::kDeadlineExceeded,
                           /*max_attempts=*/3, /*cooldown_seconds=*/0.0);
  EXPECT_EQ(entry->state(), BuildState::kRetryWait);
  EXPECT_EQ(entry->failure_cause(), BuildStatus::kDeadlineExceeded);
  EXPECT_EQ(entry->build_failures(), 1);
  EXPECT_TRUE(entry->retry_ready());  // zero cooldown: probe available now
}

TEST(ArtifactStore, CancelledProbeReturnsToRetryWaitNotWedged) {
  ArtifactStore store;
  auto entry = store.intern(laplace_2d(6));
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed(BuildStatus::kInjectedFault, 3, 0.0);
  ASSERT_EQ(entry->state(), BuildState::kRetryWait);

  // The half-open probe claims the slot...
  ASSERT_TRUE(entry->try_begin_build());
  EXPECT_EQ(entry->state(), BuildState::kBuilding);
  // ...and is cancelled mid-flight: the breaker re-opens (kRetryWait),
  // it does not wedge in kBuilding or retire early.
  entry->mark_build_failed(BuildStatus::kCancelled, 3, 0.0);
  EXPECT_EQ(entry->state(), BuildState::kRetryWait);
  EXPECT_EQ(entry->build_failures(), 2);

  // The attempt budget is bounded: the third transient failure retires.
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed(BuildStatus::kCancelled, 3, 0.0);
  EXPECT_EQ(entry->state(), BuildState::kFailed);
  EXPECT_FALSE(entry->try_begin_build());
}

TEST(ArtifactStore, PermanentCauseRetiresEvenWithAttemptsLeft) {
  ArtifactStore store;
  auto entry = store.intern(laplace_2d(6));
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed(BuildStatus::kDivergentKernel, 5, 0.0);
  EXPECT_EQ(entry->state(), BuildState::kFailed);
}

TEST(ArtifactStore, CooldownGatesTheProbe) {
  ArtifactStore store;
  auto entry = store.intern(laplace_2d(6));
  ASSERT_TRUE(entry->try_begin_build());
  entry->mark_build_failed(BuildStatus::kDeadlineExceeded, 3,
                           /*cooldown_seconds=*/30.0);
  ASSERT_EQ(entry->state(), BuildState::kRetryWait);
  EXPECT_FALSE(entry->retry_ready());
  EXPECT_GT(entry->cooldown_remaining_seconds(), 0.0);
  EXPECT_FALSE(entry->try_begin_build());  // breaker still open
}

TEST(ArtifactStore, InjectedBytePressureForcesEviction) {
  StoreLimits limits;
  limits.max_bytes = 1u << 20;
  ArtifactStore store{limits};
  FaultInjector faults;
  store.set_fault_injector(&faults);
  (void)store.intern(laplace_2d(6));
  (void)store.intern(laplace_2d(7));
  ASSERT_EQ(store.size(), 2u);

  // A pressure spike larger than the budget squeezes the store down to
  // its newest entry on the next budget check.
  faults.set_store_pressure_bytes(limits.max_bytes);
  (void)store.intern(laplace_2d(8));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(laplace_2d(8).content_fingerprint()));
  EXPECT_GE(store.stats().pressure_evictions, 1u);

  // Pressure released: the store refills normally.
  faults.set_store_pressure_bytes(0);
  (void)store.intern(laplace_2d(6));
  EXPECT_EQ(store.size(), 2u);
}

// ---------------------------------------------------------------------------
// SolveService.

TEST(SolveService, ServesConcurrentRequestsAcrossFingerprints) {
  SolveService service(fast_service_options());
  const std::vector<CsrMatrix> mats = {laplace_2d(6), laplace_2d(8),
                                       laplace_2d(10)};
  std::vector<ServeHandle> handles;
  for (int i = 0; i < 12; ++i) {
    const CsrMatrix& a = mats[static_cast<std::size_t>(i) % mats.size()];
    handles.push_back(
        service.submit(a, random_rhs(a.rows(), static_cast<u64>(i))));
    ASSERT_TRUE(handles.back());
  }
  for (const ServeHandle& h : handles) {
    const ServeResult& r = h.wait();
    EXPECT_TRUE(r.report.converged()) << r.report.summary();
    EXPECT_TRUE(r.solve_ran);
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.warm_requests + stats.cold_requests, 12u);
  // One matrix -> at most one build, ever.
  EXPECT_LE(stats.builds_started, 3u);
}

TEST(SolveService, CoalescesConcurrentBuildsToExactlyOne) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 4;  // real concurrency against one fingerprint
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(8);

  std::vector<ServeHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        service.submit(a, random_rhs(a.rows(), static_cast<u64>(i))));
    ASSERT_TRUE(handles.back());
  }
  for (const ServeHandle& h : handles) {
    EXPECT_TRUE(h.wait().report.converged());
  }
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.builds_started, 1u);    // K requests, exactly 1 build
  EXPECT_EQ(stats.builds_completed, 1u);
  EXPECT_EQ(stats.builds_failed, 0u);
  EXPECT_EQ(service.store().stats().swaps, 1u);
}

TEST(SolveService, WarmPathMatchesColdBuildBitIdentically) {
  const CsrMatrix a = laplace_2d(8);
  const std::vector<real_t> b = random_rhs(a.rows(), 7);

  // Reference: a standalone inline build + solve with the same params.
  McmcInverter inverter(a, fast_params());
  const CsrMatrix p_ref = inverter.compute();
  std::vector<real_t> x_ref;
  {
    SolveOrchestrator orch(a);
    SolveRequest req;
    req.mcmc_params = fast_params();
    x_ref.assign(static_cast<std::size_t>(a.rows()), 0.0);
    const SolveReport rep = orch.solve(b, x_ref, req);
    ASSERT_TRUE(rep.converged());
    ASSERT_EQ(rep.served_by, SolveStage::kMcmc);
  }

  // Service: let the background build finish, then solve warm.
  SolveService service(fast_service_options());
  ServeHandle cold = service.submit(a, b);  // schedules the build
  (void)cold.wait();
  service.drain();  // build + swap_in completed
  ASSERT_EQ(service.stats().builds_completed, 1u);

  auto entry = service.store().find(a);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->state(), BuildState::kTuned);
  // The swapped-in P is bit-identical to the inline build...
  EXPECT_TRUE(entry->tuned()->matrix().same_content(p_ref));

  // ...and the warm solve is bit-identical to the inline solve.  The
  // handle must outlive the result reference it hands out.
  ServeHandle warm_handle = service.submit(a, b);
  const ServeResult& warm = warm_handle.wait();
  ASSERT_TRUE(warm.warm);
  ASSERT_TRUE(warm.report.converged());
  EXPECT_EQ(warm.report.served_by, SolveStage::kMcmc);
  ASSERT_EQ(warm.x.size(), x_ref.size());
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    EXPECT_EQ(warm.x[i], x_ref[i]) << "component " << i;
  }
}

TEST(SolveService, CancelsQueuedJobFromAnotherThread) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.start_paused = true;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeHandle keep = service.submit(a, random_rhs(a.rows(), 1));
  ServeHandle victim = service.submit(a, random_rhs(a.rows(), 2));
  ASSERT_TRUE(keep);
  ASSERT_TRUE(victim);
  ASSERT_FALSE(victim.done());

  std::thread canceller([&] { victim.cancel(); });
  canceller.join();
  service.resume();

  const ServeResult& cancelled = victim.wait();
  EXPECT_EQ(cancelled.report.status, SolveStatus::kCancelled);
  EXPECT_FALSE(cancelled.solve_ran);
  EXPECT_TRUE(keep.wait().report.converged());
  service.drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(SolveService, RejectsWhenQueueIsFull) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;  // nothing drains while we overfill
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeHandle h1 = service.submit(a, random_rhs(a.rows(), 1));
  ServeHandle h2 = service.submit(a, random_rhs(a.rows(), 2));
  ServeHandle h3 = service.submit(a, random_rhs(a.rows(), 3));
  EXPECT_TRUE(h1);
  EXPECT_TRUE(h2);
  EXPECT_FALSE(h3);  // falsy handle, not an exception
  EXPECT_EQ(service.stats().rejected, 1u);

  service.resume();
  EXPECT_TRUE(h1.wait().report.converged());
  EXPECT_TRUE(h2.wait().report.converged());
}

TEST(SolveService, HigherPriorityRunsFirst) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.start_paused = true;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest low;
  low.priority = 0;
  ServeRequest high;
  high.priority = 10;
  ServeHandle first = service.submit(a, random_rhs(a.rows(), 1), low);
  ServeHandle urgent = service.submit(a, random_rhs(a.rows(), 2), high);
  service.resume();

  const ServeResult& r_urgent = urgent.wait();
  const ServeResult& r_first = first.wait();
  // The high-priority job was picked first even though it arrived second.
  EXPECT_LE(r_urgent.queue_seconds, r_first.queue_seconds);
  EXPECT_TRUE(r_urgent.report.converged());
  EXPECT_TRUE(r_first.report.converged());
}

TEST(SolveService, ShutdownCancelsQueuedJobs) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.start_paused = true;
  auto service = std::make_unique<SolveService>(opts);
  const CsrMatrix a = laplace_2d(6);
  ServeHandle h = service->submit(a, random_rhs(a.rows(), 1));
  ASSERT_TRUE(h);

  service->shutdown();  // never resumed: the job is harvested, not run
  EXPECT_EQ(h.wait().report.status, SolveStatus::kCancelled);
  EXPECT_FALSE(h.wait().solve_ran);
  // Submissions after shutdown are rejected.
  EXPECT_FALSE(service->submit(a, random_rhs(a.rows(), 2)));
  service.reset();  // double shutdown via destructor is safe
}

TEST(SolveService, DeadlineStampedAtSubmitCoversQueueWait) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.start_paused = true;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest doomed;
  doomed.deadline_seconds = 1e-4;  // expires while the queue is paused
  ServeHandle h = service.submit(a, random_rhs(a.rows(), 1), doomed);
  ASSERT_TRUE(h);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.resume();
  const ServeResult& r = h.wait();
  EXPECT_EQ(r.report.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.solve_ran);
}

TEST(SolveService, JobPastDeadlineAtSubmitCompletesImmediately) {
  ServiceOptions opts = fast_service_options();
  opts.start_paused = true;  // no worker could possibly have served it
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest dead;
  dead.deadline_seconds = 0.0;  // expired before it was even submitted
  ServeHandle h = service.submit(a, random_rhs(a.rows(), 1), dead);
  ASSERT_TRUE(h);  // accepted (and accounted), not refused
  const ServeResult r = h.wait();
  EXPECT_EQ(r.report.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.solve_ran);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(SolveService, WatchdogHarvestsExpiredJobWithoutAWorker) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.start_paused = true;  // workers never pick anything up
  opts.watchdog_period_seconds = 0.002;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest doomed;
  doomed.deadline_seconds = 1e-3;
  ServeHandle h = service.submit(a, random_rhs(a.rows(), 1), doomed);
  ASSERT_TRUE(h);
  // The service stays paused: only the watchdog sweep can complete the
  // job, proving expiry consumes no worker and no queue slot.
  ASSERT_TRUE(h.wait_for(10.0));
  const ServeResult r = h.wait();
  EXPECT_EQ(r.report.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(r.solve_ran);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(SolveService, HigherPriorityShedsLowestPriorityOldestJob) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest low;
  low.priority = 0;
  ServeHandle oldest = service.submit(a, random_rhs(a.rows(), 1), low);
  ServeHandle newer = service.submit(a, random_rhs(a.rows(), 2), low);
  ASSERT_TRUE(oldest);
  ASSERT_TRUE(newer);

  // Queue full; a strictly higher priority evicts the *oldest* of the
  // lowest-priority jobs instead of being refused.
  ServeRequest high;
  high.priority = 5;
  ServeHandle urgent = service.submit(a, random_rhs(a.rows(), 3), high);
  ASSERT_TRUE(urgent);

  const ServeResult shed = oldest.wait();
  EXPECT_EQ(shed.report.status, SolveStatus::kRejected);
  EXPECT_FALSE(shed.solve_ran);
  EXPECT_FALSE(newer.done());  // the newer equal-priority job survived

  service.resume();
  EXPECT_TRUE(urgent.wait().report.converged());
  EXPECT_TRUE(newer.wait().report.converged());
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);  // nothing was refused
}

TEST(SolveService, ShedVictimIsLowestPriorityNotOldest) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeRequest mid;
  mid.priority = 5;
  ServeRequest low;
  low.priority = 0;
  // The *older* job has the *higher* priority: it must be sheltered.
  ServeHandle older_mid = service.submit(a, random_rhs(a.rows(), 1), mid);
  ServeHandle newer_low = service.submit(a, random_rhs(a.rows(), 2), low);

  ServeRequest high;
  high.priority = 3;  // beats only the low job
  ServeHandle arrival = service.submit(a, random_rhs(a.rows(), 3), high);
  ASSERT_TRUE(arrival);
  EXPECT_EQ(newer_low.wait().report.status, SolveStatus::kRejected);
  EXPECT_FALSE(older_mid.done());

  // An arrival that beats nobody is refused, not admitted.
  ServeRequest equal;
  equal.priority = 3;
  EXPECT_FALSE(service.submit(a, random_rhs(a.rows(), 4), equal));
  EXPECT_EQ(service.stats().rejected_capacity, 1u);

  service.resume();
  EXPECT_TRUE(older_mid.wait().report.converged());
  EXPECT_TRUE(arrival.wait().report.converged());
}

TEST(SolveService, RejectionCountersSplitByCause) {
  ServiceOptions opts = fast_service_options();
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.start_paused = true;
  auto service = std::make_unique<SolveService>(opts);
  const CsrMatrix a = laplace_2d(6);

  ServeHandle h = service->submit(a, random_rhs(a.rows(), 1));
  ASSERT_TRUE(h);
  EXPECT_FALSE(service->submit(a, random_rhs(a.rows(), 2)));  // capacity
  service->shutdown();
  EXPECT_FALSE(service->submit(a, random_rhs(a.rows(), 3)));  // shutdown

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.rejected_capacity, 1u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.rejected, 2u);  // always the sum
}

TEST(SolveService, TransientBuildFailureRecoversViaCooldownProbe) {
  FaultInjector faults;
  faults.fail_service_builds(1, BuildStatus::kInjectedFault);

  ServiceOptions opts = fast_service_options();
  opts.faults = &faults;
  opts.max_build_attempts = 3;
  opts.build_cooldown_seconds = 0.005;
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(8);

  // First request schedules the build; the injected fault trips the
  // breaker into kRetryWait instead of retiring the fingerprint.
  EXPECT_TRUE(service.submit(a, random_rhs(a.rows(), 1)).wait().report
                  .converged());  // served by the fallback rungs meanwhile
  service.drain();
  auto entry = service.store().find(a);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->state(), BuildState::kRetryWait);
  EXPECT_EQ(service.stats().builds_transient, 1u);
  EXPECT_EQ(service.stats().builds_failed, 0u);

  // Requests keep arriving; once the cooldown expires one of them claims
  // the half-open probe, which succeeds and swaps the tuned P in.
  for (int i = 0; i < 200 && entry->state() != BuildState::kTuned; ++i) {
    (void)service.submit(a, random_rhs(a.rows(), 2)).wait();
    service.drain();
  }
  ASSERT_EQ(entry->state(), BuildState::kTuned);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.builds_started, 2u);  // the failed build + one probe
  EXPECT_EQ(stats.builds_retried, 1u);
  EXPECT_EQ(stats.builds_completed, 1u);
  EXPECT_EQ(stats.builds_failed, 0u);

  // And the recovered warm path actually serves.
  const ServeResult warm = service.submit(a, random_rhs(a.rows(), 3)).wait();
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(warm.report.converged());
}

TEST(SolveService, WatchdogReapsHungBuildWithinBudget) {
  FaultInjector faults;
  faults.hang_service_builds(1);  // the build never polls its token

  ServiceOptions opts = fast_service_options();
  opts.faults = &faults;
  // Big enough that a sanitizer-slowed *clean* build never trips it; the
  // hang ignores its deadline either way, so only it meets the watchdog.
  opts.build_budget_seconds = 0.5;
  opts.watchdog_period_seconds = 0.005;
  opts.watchdog_grace_seconds = 0.05;
  opts.build_cooldown_seconds = 10.0;  // no probe during this test
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);

  EXPECT_TRUE(
      service.submit(a, random_rhs(a.rows(), 1)).wait().report.converged());
  service.drain();  // returns only because the watchdog killed the hang

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.watchdog_build_kills, 1u);
  EXPECT_EQ(stats.builds_transient, 1u);  // cancellation is transient
  auto entry = service.store().find(a);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state(), BuildState::kRetryWait);

  // The builder slot survived the hang: a different matrix still builds.
  const CsrMatrix b = laplace_2d(8);
  (void)service.submit(b, random_rhs(b.rows(), 2)).wait();
  service.drain();
  EXPECT_EQ(service.stats().builds_completed, 1u);
}

TEST(SolveService, EventLogRecordsTerminalOutcomes) {
  ServiceOptions opts = fast_service_options();
  opts.event_log_capacity = 4;  // force the ring to wrap
  SolveService service(opts);
  const CsrMatrix a = laplace_2d(6);
  for (int i = 0; i < 8; ++i) {
    (void)service.submit(a, random_rhs(a.rows(), static_cast<u64>(i))).wait();
  }
  service.drain();
  const std::vector<ServiceEvent> events = service.recent_events();
  ASSERT_EQ(events.size(), 4u);  // bounded by capacity
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].seconds, events[i].seconds);  // oldest first
  }
}

}  // namespace
}  // namespace mcmi::serve
