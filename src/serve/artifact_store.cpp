#include "serve/artifact_store.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "solve/fault_injection.hpp"

namespace mcmi::serve {

const char* to_string(BuildState state) {
  switch (state) {
    case BuildState::kCold: return "cold";
    case BuildState::kBuilding: return "building";
    case BuildState::kTuned: return "tuned";
    case BuildState::kRetryWait: return "retry_wait";
    case BuildState::kFailed: return "failed";
  }
  return "unknown";
}

ArtifactEntry::ArtifactEntry(u64 fingerprint,
                             std::shared_ptr<const CsrMatrix> matrix)
    : fingerprint_(fingerprint),
      matrix_(std::move(matrix)),
      kernels_(std::make_shared<WalkKernelCache>()) {
  MCMI_CHECK(matrix_ != nullptr, "artifact entry needs a matrix");
}

std::shared_ptr<const SparseApproximateInverse> ArtifactEntry::tuned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tuned_;
}

McmcParams ArtifactEntry::tuned_params() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tuned_params_;
}

BuildState ArtifactEntry::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

bool ArtifactEntry::try_begin_build() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BuildState::kCold) {
    state_ = BuildState::kBuilding;
    return true;
  }
  // Half-open probe: once the cooldown expires, the first claimant flips
  // the breaker to kBuilding; everyone else keeps coalescing onto it.
  if (state_ == BuildState::kRetryWait && clock::now() >= cooldown_until_) {
    state_ = BuildState::kBuilding;
    return true;
  }
  return false;
}

void ArtifactEntry::mark_build_failed(BuildStatus cause, index_t max_attempts,
                                      real_t cooldown_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != BuildState::kBuilding) return;
  failure_cause_ = cause;
  ++build_failures_;
  if (!is_transient_build_failure(cause) || build_failures_ >= max_attempts) {
    state_ = BuildState::kFailed;
    return;
  }
  // Exponential cooldown: the k-th transient failure waits 2^(k-1) times
  // the base before the breaker half-opens for one probe build.
  const real_t cooldown =
      cooldown_seconds * static_cast<real_t>(1ll << std::min<index_t>(
                                                 build_failures_ - 1, 30));
  cooldown_until_ =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<real_t>(
                             std::max<real_t>(cooldown, 0)));
  state_ = BuildState::kRetryWait;
}

BuildStatus ArtifactEntry::failure_cause() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failure_cause_;
}

index_t ArtifactEntry::build_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return build_failures_;
}

bool ArtifactEntry::retry_ready() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ == BuildState::kRetryWait && clock::now() >= cooldown_until_;
}

real_t ArtifactEntry::cooldown_remaining_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != BuildState::kRetryWait) return 0.0;
  const real_t remaining =
      std::chrono::duration<real_t>(cooldown_until_ - clock::now()).count();
  return std::max<real_t>(remaining, 0);
}

std::size_t ArtifactEntry::matrix_bytes(const CsrMatrix& m) {
  return m.row_ptr().size() * sizeof(index_t) +
         m.col_idx().size() * sizeof(index_t) +
         m.values().size() * sizeof(real_t);
}

std::size_t ArtifactEntry::bytes() const {
  std::size_t total = matrix_bytes(*matrix_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (tuned_ != nullptr) total += matrix_bytes(tuned_->matrix());
  return total;
}

ArtifactStore::ArtifactStore(Limits limits) : limits_(limits) {
  MCMI_CHECK(limits_.max_entries >= 1, "store needs room for one entry");
}

void ArtifactStore::touch(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
  slot.lru_pos = lru_.begin();
}

void ArtifactStore::evict_if_over_budget() {
  // Injected byte pressure (chaos harness) inflates the accounted bytes,
  // so a pressure spike evicts exactly like real resident growth would.
  const std::size_t pressure =
      faults_ != nullptr ? faults_->store_pressure_bytes() : 0;
  while (lru_.size() > 1 &&
         (lru_.size() > limits_.max_entries ||
          bytes_ + pressure > limits_.max_bytes)) {
    const u64 victim = lru_.back();
    auto it = slots_.find(victim);
    bytes_ -= it->second.bytes;
    slots_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
    if (pressure > 0) ++stats_.pressure_evictions;
  }
}

std::shared_ptr<ArtifactEntry> ArtifactStore::lookup_verified(
    u64 fingerprint, const CsrMatrix& a) {
  auto it = slots_.find(fingerprint);
  if (it == slots_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (!it->second.entry->matrix()->same_content(a)) {
    ++stats_.collisions;
    return nullptr;
  }
  touch(it->second);
  ++stats_.hits;
  return it->second.entry;
}

std::shared_ptr<ArtifactEntry> ArtifactStore::find(const CsrMatrix& a) {
  return find(a.content_fingerprint(), a);
}

std::shared_ptr<ArtifactEntry> ArtifactStore::find(u64 fingerprint,
                                                   const CsrMatrix& a) {
  std::lock_guard<std::mutex> lock(mutex_);
  return lookup_verified(fingerprint, a);
}

std::shared_ptr<ArtifactEntry> ArtifactStore::intern(const CsrMatrix& a) {
  const u64 fingerprint = a.content_fingerprint();
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto entry = lookup_verified(fingerprint, a)) return entry;

  auto entry = std::make_shared<ArtifactEntry>(
      fingerprint, std::make_shared<CsrMatrix>(a));
  // A fingerprint collision leaves the resident entry in place: the new
  // entry is handed back detached, so its requests still work (they just
  // never get a warm path) and the impostor cannot displace cached state.
  if (slots_.count(fingerprint) != 0) return entry;

  lru_.push_front(fingerprint);
  Slot slot;
  slot.entry = entry;
  slot.lru_pos = lru_.begin();
  slot.bytes = entry->bytes();
  bytes_ += slot.bytes;
  slots_.emplace(fingerprint, std::move(slot));
  evict_if_over_budget();
  return entry;
}

void ArtifactStore::swap_in(
    const std::shared_ptr<ArtifactEntry>& entry,
    std::shared_ptr<const SparseApproximateInverse> tuned, McmcParams params) {
  MCMI_CHECK(entry != nullptr && tuned != nullptr,
             "swap_in needs an entry and a preconditioner");
  std::lock_guard<std::mutex> store_lock(mutex_);
  {
    std::lock_guard<std::mutex> entry_lock(entry->mutex_);
    entry->tuned_ = std::move(tuned);
    entry->tuned_params_ = params;
    entry->state_ = BuildState::kTuned;
  }
  ++stats_.swaps;
  auto it = slots_.find(entry->fingerprint());
  if (it == slots_.end() || it->second.entry != entry) return;  // detached
  bytes_ -= it->second.bytes;
  it->second.bytes = entry->bytes();
  bytes_ += it->second.bytes;
  evict_if_over_budget();
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::size_t ArtifactStore::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

bool ArtifactStore::contains(u64 fingerprint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.count(fingerprint) != 0;
}

std::vector<u64> ArtifactStore::lru_fingerprints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace mcmi::serve
