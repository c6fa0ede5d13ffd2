// Layer-boundary span accounting for the traced benchmark run.
//
// The traced build compiles src/ with -finstrument-functions. Every
// instrumented function entry is classified into one of the src/
// layers (by the callee's `brb::<ns>` namespace, with `brb::core`
// split into `credits` and `scenario`). A span opens only when the
// callee's layer differs from the caller's, so a layer's self time is
// its spans' duration minus the child spans of other layers inside
// them. Functions defined in headers are not instrumented: their time
// counts toward whichever layer called them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The 11 src/ layers, then `other` (symbols outside them, e.g. brb::cli).
enum Layer : std::uint8_t {
  kSim,
  kWorkload,
  kClient,
  kNet,
  kServer,
  kCtrl,
  kPolicy,
  kCredits,
  kScenario,
  kStore,
  kStats,
  kOther,
  kNumLayers,
  /// Shared helpers (brb::util): no layer of their own; their time
  /// counts toward the caller's layer, like a header-inlined helper.
  kInherit = kNumLayers,
  /// Caller outside the instrumented code (the harness itself).
  kNone,
};

const char* layer_name(Layer layer);

/// Classifies one `nm -C` demangled symbol name.
Layer layer_of_symbol(std::string_view demangled);

/// Per-layer totals of one traced interval.
struct LayerTotals {
  std::array<std::uint64_t, kNumLayers> calls{};
  std::array<std::int64_t, kNumLayers> self_ns{};
  /// Sum of the root spans: equals the sum of self_ns.
  std::int64_t traced_ns = 0;
};

/// Nested-span bookkeeping. `enter`/`exit` must pair like calls do;
/// timestamps are supplied by the caller so tests can drive it.
class SpanAccounting {
 public:
  SpanAccounting();

  /// True when this entry opens a span (it crosses a layer boundary),
  /// i.e. when the caller must supply a real timestamp.
  bool crosses(Layer callee) const {
    return resolve(callee) != top_layer();
  }
  void enter(Layer callee, std::int64_t now_ns);
  /// Returns true when the exit closed a span (`now_ns` was used).
  bool exit_closes() const { return !frames_.empty() && frames_.back().opened; }
  void exit(std::int64_t now_ns);

  std::size_t depth() const { return frames_.size(); }
  const LayerTotals& totals() const { return totals_; }
  /// Zeroes the totals; only valid with no frame open.
  void reset();

 private:
  struct Frame {
    Layer layer;
    bool opened;
  };
  struct Span {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  Layer top_layer() const { return frames_.empty() ? kNone : frames_.back().layer; }
  Layer resolve(Layer callee) const { return callee == kInherit ? top_layer() : callee; }

  std::vector<Frame> frames_;
  std::vector<Span> spans_;
  LayerTotals totals_;
};

/// Function address -> layer, built once from `nm -C` output and
/// relocated by the load bias of one anchor symbol.
class AddressLayerMap {
 public:
  /// Parses `nm -C --defined-only` lines ("ADDR TYPE NAME"), keeping
  /// text symbols. `anchor_name`/`anchor_addr` give one symbol's name
  /// and its run-time address; throws std::runtime_error when the
  /// anchor is missing (the table does not describe this binary).
  AddressLayerMap(const std::string& nm_text, std::string_view anchor_name,
                  std::uintptr_t anchor_addr);

  /// Unknown addresses are `kOther`.
  Layer lookup(std::uintptr_t addr) const;
  std::size_t size() const { return entries_; }

 private:
  void insert(std::uintptr_t addr, Layer layer);

  std::vector<std::uintptr_t> keys_;  // open addressing, 0 = empty
  std::vector<Layer> values_;
  std::size_t mask_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace perfbench
