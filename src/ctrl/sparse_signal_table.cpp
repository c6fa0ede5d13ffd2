#include "ctrl/sparse_signal_table.hpp"

#include <stdexcept>

namespace brb::ctrl {

namespace {
constexpr std::size_t kInitialSlots = 8;  // power of two
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;
}  // namespace

SparseSignalTable::SparseSignalTable(double ewma_alpha, std::uint32_t entry_cap,
                                     std::uint32_t group_size)
    : ewma_alpha_(ewma_alpha), entry_cap_(entry_cap), group_size_(group_size) {
  if (entry_cap_ == 0) throw std::invalid_argument("SparseSignalTable: entry cap must be > 0");
  if (group_size_ == 0) throw std::invalid_argument("SparseSignalTable: group size must be > 0");
  slots_.resize(kInitialSlots);
}

std::size_t SparseSignalTable::slot_of(store::ServerId server) const {
  // Multiply-shift on the dense id; table size is a power of two.
  const std::uint64_t h = static_cast<std::uint64_t>(server) * kHashMultiplier;
  return static_cast<std::size_t>(h >> 32) & (slots_.size() - 1);
}

const SparseSignalTable::Entry* SparseSignalTable::find(store::ServerId server) const {
  std::size_t slot = slot_of(server);
  while (slots_[slot].occupied) {
    if (slots_[slot].server == server) return &slots_[slot];
    slot = (slot + 1) & (slots_.size() - 1);
  }
  return nullptr;
}

const SparseSignalTable::GroupAggregate* SparseSignalTable::group_of(
    store::ServerId server) const {
  const std::size_t group = server / group_size_;
  if (group >= groups_.size() || groups_[group].folds == 0) return nullptr;
  return &groups_[group];
}

void SparseSignalTable::grow_table() {
  std::vector<Entry> old;
  old.swap(slots_);
  slots_.resize(old.size() * 2);
  for (const Entry& e : old) {
    if (!e.occupied) continue;
    std::size_t slot = slot_of(e.server);
    while (slots_[slot].occupied) slot = (slot + 1) & (slots_.size() - 1);
    slots_[slot] = e;
  }
}

void SparseSignalTable::remove_slot(std::size_t slot) {
  // Backward-shift deletion: re-seat the probe chain after the hole so
  // linear probing never needs tombstones.
  const std::size_t mask = slots_.size() - 1;
  slots_[slot].occupied = false;
  std::size_t next = (slot + 1) & mask;
  while (slots_[next].occupied) {
    const Entry moved = slots_[next];
    slots_[next].occupied = false;
    std::size_t reseat = slot_of(moved.server);
    while (slots_[reseat].occupied) reseat = (reseat + 1) & mask;
    slots_[reseat] = moved;
    next = (next + 1) & mask;
  }
  --live_;
}

void SparseSignalTable::evict_one() {
  // LRU among unpinned entries, scanning slots in order (deterministic:
  // ties broken by lowest slot, and slot layout is a pure function of
  // the insertion history). An entry is pinned while it holds state
  // that must not silently vanish: in-flight accounting (a response or
  // cancel will come back for it) or a gate mirror (balances and caps
  // are the gate's authoritative view for selection).
  std::size_t victim = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Entry& e = slots_[i];
    if (!e.occupied) continue;
    if (e.row.outstanding > 0 || e.row.pending_cost_ns > 0 || e.row.credit_balance != 0.0 ||
        e.row.rate_cap != 0.0) {
      continue;
    }
    if (victim == slots_.size() || e.lru_tick < slots_[victim].lru_tick) victim = i;
  }
  if (victim == slots_.size()) return;  // everything pinned: soft cap grows

  const Entry& e = slots_[victim];
  if (e.row.seen) {
    // Fold the response-path EWMAs into the group's running means; the
    // group becomes the fallback answer for this (and any untracked)
    // server in it.
    const std::size_t group = e.server / group_size_;
    if (group >= groups_.size()) groups_.resize(group + 1);
    GroupAggregate& agg = groups_[group];
    ++agg.folds;
    const double n = static_cast<double>(agg.folds);
    agg.mean_response_ns += (e.row.ewma_response_ns - agg.mean_response_ns) / n;
    agg.mean_queue += (e.row.ewma_queue - agg.mean_queue) / n;
    agg.mean_service_ns += (e.row.ewma_service_time_ns - agg.mean_service_ns) / n;
  }
  ++evictions_;
  remove_slot(victim);
}

SparseSignalTable::Entry& SparseSignalTable::touch(store::ServerId server) {
  std::size_t slot = slot_of(server);
  while (slots_[slot].occupied) {
    if (slots_[slot].server == server) {
      slots_[slot].lru_tick = ++tick_;
      return slots_[slot];
    }
    slot = (slot + 1) & (slots_.size() - 1);
  }

  if (live_ >= entry_cap_) evict_one();
  if ((live_ + 1) * 2 > slots_.size()) {
    grow_table();
  }
  // Re-probe: both eviction and growth may have moved the hole.
  slot = slot_of(server);
  while (slots_[slot].occupied) slot = (slot + 1) & (slots_.size() - 1);

  Entry& e = slots_[slot];
  e = Entry{};
  e.server = server;
  e.occupied = true;
  e.lru_tick = ++tick_;
  if (const GroupAggregate* agg = group_of(server)) {
    // Seed from the group prior: an evicted-then-recontacted server
    // resumes from its group's collective memory, and the first real
    // response blends into (rather than replaces) it.
    e.row.seen = true;
    e.row.ewma_response_ns = agg->mean_response_ns;
    e.row.ewma_queue = agg->mean_queue;
    e.row.ewma_service_time_ns = agg->mean_service_ns;
  }
  ++live_;
  return e;
}

void SparseSignalTable::on_send(store::ServerId server, sim::Duration expected_cost) {
  SignalTable::fold_send(touch(server).row, expected_cost);
}

void SparseSignalTable::on_response(store::ServerId server, const store::ServerFeedback& feedback,
                                    sim::Duration rtt, sim::Duration expected_cost, sim::Time at) {
  SignalTable::fold_response(touch(server).row, ewma_alpha_, feedback, rtt, expected_cost, at);
}

void SparseSignalTable::on_cancel(store::ServerId server, sim::Duration expected_cost) {
  SignalTable::fold_cancel(touch(server).row, expected_cost);
}

void SparseSignalTable::set_credit_balance(store::ServerId server, double balance) {
  touch(server).row.credit_balance = balance;
}

void SparseSignalTable::set_rate_cap(store::ServerId server, double rate) {
  touch(server).row.rate_cap = rate;
}

SignalTable::Signals SparseSignalTable::of(store::ServerId server) const {
  if (const Entry* e = find(server)) return e->row;
  SignalTable::Signals s;
  if (const GroupAggregate* agg = group_of(server)) {
    s.seen = true;
    s.ewma_response_ns = agg->mean_response_ns;
    s.ewma_queue = agg->mean_queue;
    s.ewma_service_time_ns = agg->mean_service_ns;
  }
  return s;
}

std::uint32_t SparseSignalTable::outstanding(store::ServerId server) const {
  const Entry* e = find(server);
  return e != nullptr ? e->row.outstanding : 0;
}

sim::Duration SparseSignalTable::pending_cost(store::ServerId server) const {
  const Entry* e = find(server);
  return sim::Duration::nanos(e != nullptr ? e->row.pending_cost_ns : 0);
}

bool SparseSignalTable::seen(store::ServerId server) const {
  const Entry* e = find(server);
  if (e != nullptr) return e->row.seen;
  return group_of(server) != nullptr;
}

double SparseSignalTable::ewma_response_ns(store::ServerId server) const {
  const Entry* e = find(server);
  if (e != nullptr) return e->row.ewma_response_ns;
  const GroupAggregate* agg = group_of(server);
  return agg != nullptr ? agg->mean_response_ns : 0.0;
}

double SparseSignalTable::ewma_queue(store::ServerId server) const {
  const Entry* e = find(server);
  if (e != nullptr) return e->row.ewma_queue;
  const GroupAggregate* agg = group_of(server);
  return agg != nullptr ? agg->mean_queue : 0.0;
}

double SparseSignalTable::ewma_service_time_ns(store::ServerId server) const {
  const Entry* e = find(server);
  if (e != nullptr) return e->row.ewma_service_time_ns;
  const GroupAggregate* agg = group_of(server);
  return agg != nullptr ? agg->mean_service_ns : 0.0;
}

double SparseSignalTable::credit_balance(store::ServerId server) const {
  const Entry* e = find(server);
  return e != nullptr ? e->row.credit_balance : 0.0;
}

double SparseSignalTable::rate_cap(store::ServerId server) const {
  const Entry* e = find(server);
  return e != nullptr ? e->row.rate_cap : 0.0;
}

std::int64_t SparseSignalTable::last_feedback_ns(store::ServerId server) const {
  const Entry* e = find(server);
  return e != nullptr ? e->row.last_feedback_ns : -1;
}

}  // namespace brb::ctrl
