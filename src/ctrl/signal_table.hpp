// The unified per-(client,server) signal table — layer 1 of the
// control plane.
//
// The paper's feedback loop (per-replica signals driving replica
// selection and admission) used to be smeared across four components,
// each scraping its own copy of the observables: the C3 selector kept
// EWMAs, the least-outstanding/least-pending selectors kept counters,
// the credit gate kept balances, and the rate controller kept caps.
// The SignalTable centralizes all of them in one flat dense-ID store
// per client, updated from a single feedback path (the client's
// on-send / on-response hooks plus the admission gate's mirrors).
// Policies (ctrl/replica_policy.hpp) become pure readers — which is
// what makes them swappable mid-run: a policy switch binds a new
// decision procedure to the *same* accumulated signals.
//
// Layout: one `Signals` row per ServerId, and every feedback call folds
// into its row as it arrives. The fold rules are static functions
// (`fold_send`, `fold_response`, `fold_cancel`) that both backing
// stores apply, so the arithmetic exists once. A structure-of-arrays
// layout with staged, column-wise response folding was ablated: it
// produced identical values and ran the per-request update path
// slower, so it went.
//
// At fleet scale the dense rows are the scaling blocker: every client
// paying O(num_servers) memory is O(clients x servers) across the run.
// `SignalTableConfig::sparse` switches the backing store to a
// SparseSignalTable (ctrl/sparse_signal_table.hpp): touched pairs
// only, LRU-windowed to a per-client cap, per-server-group aggregates
// as the fallback for evicted/never-touched pairs. Every reader below
// reads through unchanged, so selection policies cannot tell the
// stores apart — and with a cap above the fleet size the sparse store
// is bit-identical to the dense one (nothing ever evicts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"
#include "store/types.hpp"

namespace brb::ctrl {

class SparseSignalTable;

struct SignalTableConfig {
  /// Weight of the newest sample in the response-path EWMAs (0..1].
  /// This is C3's `ewma_alpha`; the table smooths identically for
  /// every policy so estimates survive a mid-run policy switch.
  double ewma_alpha = 0.5;
  /// Back the table with the sparse windowed store instead of dense
  /// rows (million-client scale). Default off: dense remains the
  /// byte-identical paper path.
  bool sparse = false;
  /// Sparse only: soft cap on tracked (client,server) pairs. Entries
  /// holding live state (in-flight, gate mirrors) never evict, so the
  /// table may exceed the cap rather than corrupt accounting.
  std::uint32_t sparse_cap = 128;
};

/// One client's view of every server, indexed densely by ServerId.
/// Grows on first contact; unseen servers read as the neutral zero
/// state (exactly the behavior the per-selector tables had).
class SignalTable {
 public:
  /// One server's signals: the row both stores keep per server, and
  /// the snapshot `of()` returns (a copy; it does not track later
  /// updates).
  struct Signals {
    // --- response-path estimates (seeded by the first response) ---
    /// EWMA of measured response time (request RTT), nanoseconds.
    double ewma_response_ns = 0.0;
    /// EWMA of the server-reported queue length.
    double ewma_queue = 0.0;
    /// EWMA of the server-reported per-request service time, ns.
    double ewma_service_time_ns = 0.0;
    /// At least one response has been observed from this server.
    bool seen = false;

    // --- in-flight accounting (updated at offer / response) ---
    /// Requests bound for this server that have not yet responded.
    std::uint32_t outstanding = 0;
    /// Forecast work in flight (summed expected costs), nanoseconds.
    std::int64_t pending_cost_ns = 0;

    // --- admission-side state (mirrored by the dispatch gates) ---
    /// Current credit balance (credits systems; 0 otherwise).
    double credit_balance = 0.0;
    /// Current sending-rate cap, req/s (cubic-rate systems; 0 otherwise).
    double rate_cap = 0.0;

    // --- raw last feedback (un-smoothed) ---
    std::uint32_t last_queue_length = 0;
    double last_service_rate = 0.0;
    /// Simulated time of the last response fold (-1: never) — the
    /// freshness signal hedge suppression reads.
    std::int64_t last_feedback_ns = -1;
  };

  explicit SignalTable(SignalTableConfig config = {});
  ~SignalTable();
  SignalTable(SignalTable&&) noexcept;
  SignalTable& operator=(SignalTable&&) noexcept;

  // --- fold rules (shared by the dense rows and SparseSignalTable) ---
  /// Charges one request's in-flight accounting.
  static void fold_send(Signals& row, sim::Duration expected_cost);
  /// Releases the request's in-flight accounting (never below zero: a
  /// duplicate response must not underflow either account), records
  /// the raw feedback, then seeds the response-path EWMAs from the
  /// first sample and blends with `util::ewma_update` after that.
  static void fold_response(Signals& row, double ewma_alpha,
                            const store::ServerFeedback& feedback, sim::Duration rtt,
                            sim::Duration expected_cost, sim::Time at);
  /// Releases the in-flight accounting with the same underflow guards
  /// as fold_response; no EWMA fold.
  static void fold_cancel(Signals& row, sim::Duration expected_cost);

  /// A request was bound to `server` (counted at *offer* time, before
  /// any gate hold, so throttled replicas keep accumulating believed
  /// load — the invariant the old selector-side accounting relied on).
  void on_send(store::ServerId server, sim::Duration expected_cost);

  /// A response arrived: releases the in-flight accounting and folds
  /// the sample into the EWMAs. `at` stamps the feedback's arrival on
  /// the simulated clock (freshness signal); callers without a clock
  /// may omit it — the row then reads as "stale forever", which
  /// disables freshness-gated behaviors.
  void on_response(store::ServerId server, const store::ServerFeedback& feedback,
                   sim::Duration rtt, sim::Duration expected_cost,
                   sim::Time at = sim::Time::zero());

  /// A request bound to `server` was cancelled before service (hedge
  /// loser dropped at the gate or rejected at dequeue): releases the
  /// in-flight accounting its on_send charged. No EWMA fold and no
  /// response count — cancelled copies produce no feedback.
  void on_cancel(store::ServerId server, sim::Duration expected_cost);

  /// Admission mirrors (called by the credit gate / rate gate whenever
  /// their state changes, so selection policies can read balances and
  /// caps without reaching into gate internals).
  void set_credit_balance(store::ServerId server, double balance);
  void set_rate_cap(store::ServerId server, double rate);

  /// Row snapshot; servers beyond the table read as the zero state.
  Signals of(store::ServerId server) const;

  // --- field reads (the sparse branch is out of line so the dense
  // hot path stays inline) ---
  std::uint32_t outstanding(store::ServerId server) const {
    if (sparse_) return sparse_outstanding(server);
    return server < rows_.size() ? rows_[server].outstanding : 0;
  }
  sim::Duration pending_cost(store::ServerId server) const {
    if (sparse_) return sparse_pending_cost(server);
    return sim::Duration::nanos(server < rows_.size() ? rows_[server].pending_cost_ns : 0);
  }
  bool seen(store::ServerId server) const {
    if (sparse_) return sparse_seen(server);
    return server < rows_.size() && rows_[server].seen;
  }
  double ewma_response_ns(store::ServerId server) const {
    if (sparse_) return sparse_ewma_response_ns(server);
    return server < rows_.size() ? rows_[server].ewma_response_ns : 0.0;
  }
  double ewma_queue(store::ServerId server) const {
    if (sparse_) return sparse_ewma_queue(server);
    return server < rows_.size() ? rows_[server].ewma_queue : 0.0;
  }
  double ewma_service_time_ns(store::ServerId server) const {
    if (sparse_) return sparse_ewma_service_time_ns(server);
    return server < rows_.size() ? rows_[server].ewma_service_time_ns : 0.0;
  }
  /// Simulated nanoseconds of the last response fold; -1 when this
  /// server has never produced feedback (or the pair was evicted).
  std::int64_t last_feedback_ns(store::ServerId server) const {
    if (sparse_) return sparse_last_feedback_ns(server);
    return server < rows_.size() ? rows_[server].last_feedback_ns : -1;
  }
  double credit_balance(store::ServerId server) const {
    if (sparse_) return sparse_credit_balance(server);
    return server < rows_.size() ? rows_[server].credit_balance : 0.0;
  }
  double rate_cap(store::ServerId server) const {
    if (sparse_) return sparse_rate_cap(server);
    return server < rows_.size() ? rows_[server].rate_cap : 0.0;
  }

  /// Dense: servers contacted so far (table growth high-water mark).
  /// Sparse: live (windowed, non-evicted) entries.
  std::size_t size() const noexcept;
  /// Sparse backing store, nullptr in dense mode (observability).
  const SparseSignalTable* sparse_store() const noexcept { return sparse_.get(); }
  const SignalTableConfig& config() const noexcept { return config_; }

  /// Cumulative update counts (observability + bench).
  std::uint64_t sends_recorded() const noexcept { return sends_; }
  std::uint64_t responses_recorded() const noexcept { return responses_; }
  std::uint64_t cancels_recorded() const noexcept { return cancels_; }

 private:
  /// The dense row for `server`, grown on first contact.
  Signals& row(store::ServerId server);

  // Out-of-line sparse delegates (SparseSignalTable is incomplete
  // here; the dense readers above must stay header-inline).
  std::uint32_t sparse_outstanding(store::ServerId server) const;
  sim::Duration sparse_pending_cost(store::ServerId server) const;
  bool sparse_seen(store::ServerId server) const;
  double sparse_ewma_response_ns(store::ServerId server) const;
  double sparse_ewma_queue(store::ServerId server) const;
  double sparse_ewma_service_time_ns(store::ServerId server) const;
  double sparse_credit_balance(store::ServerId server) const;
  double sparse_rate_cap(store::ServerId server) const;
  std::int64_t sparse_last_feedback_ns(store::ServerId server) const;

  SignalTableConfig config_;

  /// Dense rows indexed by ServerId (unused in sparse mode).
  std::vector<Signals> rows_;

  /// Non-null iff config_.sparse: the windowed backing store every
  /// call above delegates to.
  std::unique_ptr<SparseSignalTable> sparse_;

  std::uint64_t sends_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t cancels_ = 0;
};

}  // namespace brb::ctrl
