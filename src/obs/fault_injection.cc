#include "obs/fault_injection.h"

#include <chrono>
#include <thread>
#include <utility>

namespace sper {
namespace obs {

namespace {

/// splitmix64 — the same mixing constant set core/store_partition uses;
/// one round is enough to decorrelate (seed ^ hit_index) into a uniform
/// 64-bit draw for the Bernoulli gate.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Arm(std::string site, FaultPlan plan) {
  MutexLock lock(mutex_);
  auto [it, inserted] = sites_.insert_or_assign(std::move(site),
                                                SiteState{std::move(plan)});
  (void)it;
  if (inserted) armed_sites_.fetch_add(1, std::memory_order_relaxed);
}

void FaultRegistry::Disarm(const std::string& site) {
  MutexLock lock(mutex_);
  if (sites_.erase(site) > 0) {
    armed_sites_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultRegistry::Reset() {
  MutexLock lock(mutex_);
  armed_sites_.fetch_sub(sites_.size(), std::memory_order_relaxed);
  sites_.clear();
}

std::uint64_t FaultRegistry::hits(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultRegistry::fires(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

void FaultRegistry::Hit(std::string_view site) { Fire(site, nullptr); }

void FaultRegistry::HitAt(std::string_view site, std::uint64_t index) {
  Fire(site, &index);
}

void FaultRegistry::Fire(std::string_view site, const std::uint64_t* index) {
  if (!armed()) return;

  // Decide under the lock, act outside it: a stall must not serialize
  // unrelated seams, and a throw must not leave the mutex held.
  FaultPlan::Action action;
  std::uint64_t stall_ms = 0;
  std::string message;
  {
    MutexLock lock(mutex_);
    auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return;
    SiteState& state = it->second;
    const std::uint64_t hit = state.hits++;
    const std::uint64_t at = index != nullptr ? *index : hit;
    if (at < state.plan.start_after) return;
    const std::uint64_t scheduled = at - state.plan.start_after;
    const std::uint64_t every =
        state.plan.every == 0 ? 1 : state.plan.every;
    if (scheduled % every != 0) return;
    // An indexed seam caps scheduled positions, not fires: counting
    // fires would let the racing order of the callers pick who fires.
    const std::uint64_t spent =
        index != nullptr ? scheduled / every : state.fires;
    if (state.plan.limit != 0 && spent >= state.plan.limit) return;
    if (state.plan.probability < 1.0) {
      const double draw =
          static_cast<double>(Mix64(state.plan.seed ^ at) >> 11) *
          0x1.0p-53;  // uniform in [0, 1)
      if (draw >= state.plan.probability) return;
    }
    ++state.fires;
    action = state.plan.action;
    stall_ms = state.plan.stall_ms;
    if (action == FaultPlan::Action::kThrow) message = state.plan.message;
  }

  if (action == FaultPlan::Action::kStall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  } else {
    throw FaultInjectedError(message);
  }
}

}  // namespace obs
}  // namespace sper
