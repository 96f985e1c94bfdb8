#pragma once
/// @file solve_service.hpp
/// @brief SolveService — the long-lived, concurrent request engine
/// (ROADMAP item 1: solver-as-a-service).
///
/// A SolveService owns a bounded priority queue of solve jobs, a worker
/// pool that drives SolveOrchestrator::solve with a per-request
/// CancelToken, a builder pool that runs MCMC build (+ optional HPO
/// tuning) asynchronously, a content-addressed ArtifactStore of
/// per-matrix artifacts, and a watchdog thread that keeps all of the
/// above honest under overload and faults.
///
/// Admission is warm-vs-cold: the *first* request for a matrix fingerprint
/// is served immediately by the cheap fallback rungs (ILU0 -> Jacobi ->
/// identity) while the MCMC build and tuner run in the background; once
/// the tuned preconditioner is swapped into the store, later requests for
/// the same fingerprint take the warm path (the tuned P is *supplied* to
/// the orchestrator, skipping the build entirely).  Concurrent requests
/// against the same fingerprint coalesce onto one build — the entry's
/// try_begin_build() hands the build to exactly one of them.
///
/// Overload resilience (this layer's contract under sustained 2x load):
///  * a full queue sheds the lowest-priority, oldest queued job to admit a
///    strictly higher-priority arrival (completed as kRejected) instead of
///    refusing the arrival; equal-or-lower-priority arrivals are refused
///    (rejected_capacity);
///  * a watchdog sweep completes already-expired queued jobs as
///    kDeadlineExceeded without consuming a worker, and workers re-check
///    expiry at pickup;
///  * transient build failures cool down in BuildState::kRetryWait with
///    bounded attempts and exponential backoff (the build circuit
///    breaker) instead of retiring the fingerprint forever;
///  * every background build runs under its own CancelToken budget, and
///    the watchdog cancels builds/solves stuck past budget + grace.
///
/// Determinism: the *answers* keep the repo's bit-exactness contract — a
/// warm solve with the swapped-in P is bit-identical to a solve with the
/// same P built inline, because the preconditioner itself is a
/// deterministic function of (matrix, params, seed).  What varies with
/// timing is only *which* path (warm or cold) a given request takes, and
/// under overload *which* requests run at all — never any answer's bits.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancellation.hpp"
#include "hpo/mcmc_tuner.hpp"
#include "serve/artifact_store.hpp"
#include "serve/telemetry.hpp"
#include "solve/orchestrator.hpp"

namespace mcmi::serve {

/// Per-request knobs carried by submit().
struct ServeRequest {
  real_t tolerance = 1e-8;          ///< relative residual target
  index_t max_iterations = 5000;    ///< Krylov iteration cap
  index_t restart = 50;             ///< GMRES restart length
  KrylovMethod method = KrylovMethod::kGMRES;
  /// Wall-clock deadline measured from *submit* time, so queue wait counts
  /// against it; infinity = unbounded.
  real_t deadline_seconds = std::numeric_limits<real_t>::infinity();
  /// Higher runs first; ties run in submission order.  Under a full queue
  /// a strictly higher priority also shelters the request from refusal:
  /// it evicts (sheds) the lowest-priority oldest queued job instead.
  index_t priority = 0;
};

/// Outcome of one served request.
struct ServeResult {
  SolveReport report;       ///< the orchestrator's full ladder history
  std::vector<real_t> x;    ///< the answer (valid when report.converged())
  u64 fingerprint = 0;      ///< content fingerprint of the matrix
  bool warm = false;        ///< served with the store's tuned preconditioner
  bool solve_ran = false;   ///< false when cancelled/shed/expired unrun
  real_t queue_seconds = 0; ///< submit -> worker pickup (or queue exit)
  real_t total_seconds = 0; ///< submit -> completion
};

/// Aggregate service counters (snapshot; store counters nested).
///
/// Conservation: once the service is drained,
/// `submitted == completed + cancelled + shed + expired` holds exactly —
/// every accepted job ends in exactly one of those four buckets.
struct ServiceStats {
  u64 submitted = 0;          ///< accepted submissions (shed jobs included)
  u64 rejected = 0;           ///< refusals; always capacity + shutdown
  u64 rejected_capacity = 0;  ///< refused: queue full, nothing sheddable
  u64 rejected_shutdown = 0;  ///< refused: service stopping
  u64 completed = 0;          ///< jobs that ended in a numerical status
  u64 cancelled = 0;          ///< jobs ended by explicit cancellation
  u64 shed = 0;               ///< queued jobs evicted by a higher priority
  u64 expired = 0;            ///< jobs ended past-deadline (queued or run)
  u64 warm_requests = 0;      ///< served with a tuned store preconditioner
  u64 cold_requests = 0;      ///< served by the fallback rungs
  u64 builds_started = 0;     ///< MCMC builds scheduled (probes included)
  u64 builds_completed = 0;   ///< builds that swapped a tuned P in
  u64 builds_failed = 0;      ///< builds retired permanently
  u64 builds_transient = 0;   ///< build failures that entered kRetryWait
  u64 builds_retried = 0;     ///< circuit-breaker probe builds scheduled
  u64 coalesced_builds = 0;   ///< requests that joined an in-flight build
  u64 watchdog_build_kills = 0;  ///< builds cancelled stuck past budget
  u64 watchdog_solve_kills = 0;  ///< solves cancelled stuck past deadline
  LatencyHistogram queue_wait;   ///< submit -> pickup/queue-exit
  LatencyHistogram solve;        ///< orchestrator wall time (ran jobs)
  LatencyHistogram total;        ///< submit -> completion
  StoreStats store;              ///< the artifact store's own counters
};

namespace detail {
/// Shared state of one in-flight job; ServeHandle is a view onto it.
struct JobState;
}  // namespace detail

/// Caller-side handle of a submitted job: wait for, poll, or cancel it.
/// Copyable (shared state); a default-constructed or rejected handle is
/// falsy and must not be waited on.
class ServeHandle {
 public:
  ServeHandle() = default;

  /// True for a handle backed by an accepted submission.
  explicit operator bool() const { return state_ != nullptr; }

  /// Block until the job completes and return a copy of its result.  Safe
  /// on a temporary handle: `service.submit(...).wait()` owns its result.
  ServeResult wait() const;
  /// Zero-copy variant: the reference lives inside the job's shared state
  /// and stays valid only while *some* handle to the job exists — keep the
  /// handle alive (never call `service.submit(...).wait_ref()` on a
  /// temporary).  Use when the result is large and the handle's lifetime
  /// is already pinned.
  const ServeResult& wait_ref() const;
  /// Block up to `seconds`; true when the job completed in time.
  bool wait_for(real_t seconds) const;
  /// Non-blocking completion check.
  [[nodiscard]] bool done() const;
  /// Cooperatively cancel: a queued job completes as kCancelled without
  /// running (harvested by the watchdog sweep or at worker pickup); an
  /// in-flight solve stops at its next cancellation poll.  Safe from any
  /// thread.
  void cancel() const;

 private:
  friend class SolveService;
  explicit ServeHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::JobState> state_;
};

/// Construction-time knobs of the service.
struct ServiceOptions {
  std::size_t workers = 2;          ///< solve worker threads
  std::size_t builders = 1;         ///< background build/tune threads
  std::size_t queue_capacity = 64;  ///< pending-job bound (admission)
  ArtifactStore::Limits store;      ///< artifact store budgets
  /// Schedule an async MCMC build on the first request of a fingerprint.
  bool build_on_cold = true;
  /// Run the HPO tuner before the background build (cold requests are
  /// unaffected — they are already being served by the fallback rungs).
  /// Off: the build uses `mcmc_params` directly.
  bool tune = false;
  hpo::McmcTuneOptions tune_options;     ///< tuner knobs when tune is on
  KrylovMethod tune_method = KrylovMethod::kGMRES;  ///< tuner's solve method
  SolveOptions tune_solve_options;       ///< measurer knobs when tune is on
  McmcParams mcmc_params{};              ///< build params (tuner fallback)
  McmcOptions mcmc_options{};            ///< sampler knobs for the build
  /// Wall-clock budget for one background build + tune: the deadline on
  /// the build's own CancelToken, so a runaway tuner or build abandons
  /// itself at its next poll (and the watchdog reaps it if it never
  /// polls).  <= 0 = unbounded.
  real_t build_budget_seconds = 0.0;
  /// Total build attempts per fingerprint (initial + probes) before a
  /// transient failure retires the entry permanently.  1 reproduces the
  /// pre-breaker behaviour (any failure retires).
  index_t max_build_attempts = 3;
  /// Cooldown after the first transient build failure; doubles per
  /// failure (the circuit breaker's exponential backoff).
  real_t build_cooldown_seconds = 0.25;
  /// Watchdog sweep period: how often expired queued jobs are harvested
  /// and stuck builds/solves checked.  <= 0 disables the watchdog thread
  /// (expiry is then only re-checked at worker pickup).
  real_t watchdog_period_seconds = 0.02;
  /// Slack past a budget/deadline before the watchdog presumes a hang and
  /// cancels: long enough that a *polling* build/solve always stops
  /// itself first (keeping its honest kDeadlineExceeded status), short
  /// enough to bound how long a hung thread pins a worker/builder slot.
  real_t watchdog_grace_seconds = 0.25;
  /// Capacity of the recent_events() ring buffer.
  std::size_t event_log_capacity = 256;
  /// Optional service-level chaos injector (not owned; must outlive the
  /// service).  Scripts build hangs, builder-slot faults and store byte
  /// pressure — see FaultInjector's service-level API.  Tests only.
  FaultInjector* faults = nullptr;
  /// Start with the worker pool paused (tests: fill the queue, then
  /// resume() for deterministic scheduling).
  bool start_paused = false;
};

/// The concurrent solve engine.  Threads start in the constructor and are
/// joined by shutdown() / the destructor; submit() is thread-safe.
class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submit a solve of `a x = rhs`.  Interns `a` in the artifact store,
  /// stamps the deadline, and enqueues.  Returns a falsy handle only when
  /// the service is stopping, or the queue is full and the request's
  /// priority does not beat any queued job's (counted rejected_*).  A
  /// request that is already past its deadline at submit is accepted and
  /// completed immediately as kDeadlineExceeded (counted expired).
  ServeHandle submit(const CsrMatrix& a, std::vector<real_t> rhs,
                     const ServeRequest& request = {});

  /// Block until every accepted job has completed and no build is pending
  /// or in flight.  Call resume() first if the service is paused.
  void drain();

  /// Hold workers (not builders or the watchdog) before their next job;
  /// queued jobs wait, but the expiry sweep still harvests them.
  void pause();
  /// Release paused workers.
  void resume();

  /// Stop accepting work, cancel everything queued, join all threads.
  /// Idempotent; also run by the destructor.
  void shutdown();

  /// Counter snapshot (store counters included; `rejected` filled in as
  /// rejected_capacity + rejected_shutdown).
  [[nodiscard]] ServiceStats stats() const;
  /// The most recent service events, oldest first (bounded ring buffer of
  /// event_log_capacity entries) — the ops answer to "why did my request
  /// not run?".
  [[nodiscard]] std::vector<ServiceEvent> recent_events() const;
  /// The artifact store (for inspection; shared with the workers).
  [[nodiscard]] ArtifactStore& store() { return store_; }

 private:
  struct BuildJob {
    std::shared_ptr<ArtifactEntry> entry;
  };
  /// Watchdog visibility into one in-flight background build.
  struct ActiveBuild {
    std::shared_ptr<ArtifactEntry> entry;
    std::shared_ptr<CancelToken> token;
    CancelToken::clock::time_point start;
  };

  void worker_loop();
  void builder_loop();
  void watchdog_loop();
  void run_job(const std::shared_ptr<detail::JobState>& job);
  void run_build(const BuildJob& build);
  void schedule_build(const std::shared_ptr<ArtifactEntry>& entry);
  /// Finish an accepted job: stamp total time, account it in exactly one
  /// terminal counter + the histograms, log the event, wake waiters.
  /// Must be called WITHOUT mutex_ held, exactly once per job.
  void complete_job(const std::shared_ptr<detail::JobState>& job);
  /// The single classification point behind the conservation law
  /// (mutex_ held).
  void account_terminal_locked(const detail::JobState& job);
  void record_event_locked(ServiceEventType type, u64 fingerprint,
                           const char* detail);
  void retire_or_cool_down(const std::shared_ptr<ArtifactEntry>& entry,
                           BuildStatus cause);

  const ServiceOptions options_;
  ArtifactStore store_;
  CancelToken shutdown_token_;
  const CancelToken::clock::time_point epoch_ =
      CancelToken::clock::now();  ///< event timestamps are service-relative

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;      ///< workers wait here
  std::condition_variable build_cv_;     ///< builders wait here
  std::condition_variable drain_cv_;     ///< drain()/shutdown() wait here
  std::condition_variable watchdog_cv_;  ///< watchdog sleeps here
  /// Priority queue: key (-priority, seq) so higher priority pops first
  /// and ties keep submission order.  The shed victim under overload is
  /// the *last* priority group's first element (lowest priority, oldest).
  std::map<std::pair<index_t, u64>, std::shared_ptr<detail::JobState>>
      queue_;
  std::deque<BuildJob> build_queue_;
  std::vector<std::shared_ptr<detail::JobState>> active_jobs_;
  std::vector<ActiveBuild> active_builds_;
  u64 next_seq_ = 0;
  std::size_t running_ = 0;   ///< jobs currently held by workers
  std::size_t building_ = 0;  ///< builds currently held by builders
  bool paused_ = false;
  bool stopping_ = false;
  ServiceStats stats_;
  EventLog events_;

  std::vector<std::thread> workers_;
  std::vector<std::thread> builders_;
  std::thread watchdog_;
};

}  // namespace mcmi::serve
