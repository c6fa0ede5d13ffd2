// Sparse backing store for the SignalTable — million-client scale.
//
// The dense SignalTable allocates a row for every ServerId up to the
// highest one a client has touched: exact and fast at paper scale, but
// O(clients x servers) across a fleet — a 10k-server x 1M-client run
// would spend ~6.6 TB on rows alone. The sparse store keeps only
// the pairs a client has actually touched, in one open-addressed
// table keyed by dense ServerId:
//
//   * power-of-two capacity, multiply-shift hash, linear probing,
//     backward-shift deletion (no tombstones); starts at 8 slots and
//     doubles at 1/2 load, so a client that only ever contacts its
//     replication groups pays ~1 KB, not ~1 MB;
//   * a *soft* per-client entry cap with LRU eviction: writes stamp a
//     deterministic tick, inserts over the cap evict the
//     least-recently-written entry that holds no live state
//     (in-flight accounting and admission mirrors pin an entry — a
//     gate's balance must never silently vanish). When every entry is
//     pinned the table grows past the cap instead of corrupting state;
//   * hierarchical per-server-group aggregation as the fallback: an
//     evicted entry folds its response-path EWMAs into its group's
//     running means (group = server / group_size), and reads of a
//     never-held pair in a group with history answer with the group
//     aggregate (seen, EWMAs = group means, counters zero). New
//     entries in such a group seed their EWMAs from the aggregate, so
//     an evicted-then-recontacted server starts from the group prior
//     rather than from scratch.
//
// Determinism: ticks are a simple write counter, eviction scans the
// table in slot order with strict tie-breaks, and the hash depends
// only on ServerId — identical runs evict identically. When the cap
// exceeds the fleet size nothing is ever evicted and every read and
// EWMA fold is bit-identical to the dense store (the differential
// test in tests/control_plane_test.cpp pins this).
//
// Feedback folds through SignalTable's shared rules (`fold_send`,
// `fold_response`, `fold_cancel`) into the entry's `Signals` row, as
// it arrives: the two stores hold the same row type and apply the same
// arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/signal_table.hpp"
#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::ctrl {

class SparseSignalTable {
 public:
  SparseSignalTable(double ewma_alpha, std::uint32_t entry_cap, std::uint32_t group_size);

  void on_send(store::ServerId server, sim::Duration expected_cost);
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost, sim::Time at);
  void on_cancel(store::ServerId server, sim::Duration expected_cost);
  void set_credit_balance(store::ServerId server, double balance);
  void set_rate_cap(store::ServerId server, double rate);

  /// Row snapshot. A pair not in the table answers with its group
  /// aggregate when one exists (seen, EWMAs = group means, all
  /// counters and mirrors zero), else the neutral zero state.
  SignalTable::Signals of(store::ServerId server) const;

  std::uint32_t outstanding(store::ServerId server) const;
  sim::Duration pending_cost(store::ServerId server) const;
  bool seen(store::ServerId server) const;
  double ewma_response_ns(store::ServerId server) const;
  double ewma_queue(store::ServerId server) const;
  double ewma_service_time_ns(store::ServerId server) const;
  double credit_balance(store::ServerId server) const;
  double rate_cap(store::ServerId server) const;
  std::int64_t last_feedback_ns(store::ServerId server) const;

  /// Live (non-evicted) entries.
  std::size_t live_entries() const noexcept { return live_; }
  /// Entries evicted into group aggregates over the store's lifetime.
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  struct Entry {
    store::ServerId server = 0;
    bool occupied = false;
    std::uint64_t lru_tick = 0;
    SignalTable::Signals row;
  };

  /// Running means of the response-path EWMAs folded out of evicted
  /// entries — the group's collective memory of servers the window no
  /// longer tracks individually.
  struct GroupAggregate {
    std::uint64_t folds = 0;
    double mean_response_ns = 0.0;
    double mean_queue = 0.0;
    double mean_service_ns = 0.0;
  };

  std::size_t slot_of(store::ServerId server) const;
  const Entry* find(store::ServerId server) const;
  /// Finds or creates the entry (seeding from the group aggregate),
  /// evicting the LRU unpinned entry when the soft cap is reached.
  Entry& touch(store::ServerId server);
  void grow_table();
  void evict_one();
  void remove_slot(std::size_t slot);
  const GroupAggregate* group_of(store::ServerId server) const;

  double ewma_alpha_;
  std::uint32_t entry_cap_;
  std::uint32_t group_size_;
  std::vector<Entry> slots_;
  std::size_t live_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  /// Indexed by group id; empty until the first eviction.
  std::vector<GroupAggregate> groups_;
};

}  // namespace brb::ctrl
