#include "span_accounting.hpp"

#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "sim",    "workload", "client",   "net",   "server", "ctrl",
    "policy", "credits",  "scenario", "store", "stats",  "other",
};

/// brb::core classes that make up the credits layer (credits.hpp and
/// global_queue.hpp); the rest of brb::core is run_scenario's wiring.
constexpr std::array<std::string_view, 4> kCreditsClasses = {
    "CreditGate", "CreditsController", "CongestionMonitor", "GlobalQueueModel",
};

/// Strips every "(anonymous namespace)::" so the scan below sees plain
/// qualified names.
std::string strip_anonymous(std::string_view name) {
  constexpr std::string_view kAnon = "(anonymous namespace)::";
  std::string out;
  out.reserve(name.size());
  std::size_t pos = 0;
  while (pos < name.size()) {
    const std::size_t hit = name.find(kAnon, pos);
    if (hit == std::string_view::npos) {
      out.append(name.substr(pos));
      break;
    }
    out.append(name.substr(pos, hit - pos));
    pos = hit + kAnon.size();
  }
  return out;
}

/// The qualified function name: the last token at template depth 0
/// before the parameter list (skips a template function's return type).
std::string_view qualified_name(std::string_view name) {
  int depth = 0;
  std::size_t token = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth > 0) --depth;
    } else if (depth == 0 && c == '(') {
      return name.substr(token, i - token);
    } else if (depth == 0 && c == ' ') {
      token = i + 1;
    }
  }
  return name.substr(token);
}

/// The name component that starts at `from`, up to the next ":" or "<".
std::string_view component(std::string_view name, std::size_t from) {
  std::size_t end = from;
  while (end < name.size() && name[end] != ':' && name[end] != '<') ++end;
  return name.substr(from, end - from);
}

}  // namespace

const char* layer_name(Layer layer) {
  return layer < kNumLayers ? kLayerNames[layer] : "none";
}

Layer layer_of_symbol(std::string_view demangled) {
  const std::string plain = strip_anonymous(demangled);
  const std::string_view name = qualified_name(plain);
  constexpr std::string_view kBrb = "brb::";
  if (name.substr(0, kBrb.size()) != kBrb) return kOther;
  const std::string_view ns = component(name, kBrb.size());
  if (ns == "util") return kInherit;
  if (ns == "core") {
    const std::string_view cls = component(name, kBrb.size() + ns.size() + 2);
    for (const std::string_view credits : kCreditsClasses) {
      if (cls == credits) return kCredits;
    }
    return kScenario;
  }
  for (std::uint8_t l = 0; l < kOther; ++l) {
    if (ns == kLayerNames[l]) return static_cast<Layer>(l);
  }
  return kOther;
}

SpanAccounting::SpanAccounting() {
  frames_.reserve(1024);
  spans_.reserve(256);
}

void SpanAccounting::enter(Layer callee, std::int64_t now_ns) {
  const Layer layer = resolve(callee);
  const bool opened = layer != top_layer();
  if (opened) {
    spans_.push_back({layer, now_ns, 0});
    ++totals_.calls[layer];
  }
  frames_.push_back({layer, opened});
}

void SpanAccounting::exit(std::int64_t now_ns) {
  if (frames_.empty()) throw std::logic_error("SpanAccounting::exit without enter");
  const Frame frame = frames_.back();
  frames_.pop_back();
  if (!frame.opened) return;
  const Span span = spans_.back();
  spans_.pop_back();
  const std::int64_t duration = now_ns - span.start_ns;
  totals_.self_ns[span.layer] += duration - span.child_ns;
  if (spans_.empty()) {
    totals_.traced_ns += duration;
  } else {
    spans_.back().child_ns += duration;
  }
}

void SpanAccounting::reset() {
  if (!frames_.empty()) throw std::logic_error("SpanAccounting::reset inside a span");
  totals_ = LayerTotals{};
}

AddressLayerMap::AddressLayerMap(const std::string& nm_text, std::string_view anchor_name,
                                 std::uintptr_t anchor_addr) {
  struct Symbol {
    std::uintptr_t addr;
    Layer layer;
  };
  std::vector<Symbol> symbols;
  bool anchored = false;
  std::uintptr_t bias = 0;
  std::istringstream lines(nm_text);
  std::string line;
  while (std::getline(lines, line)) {
    // "0000000000401a20 T brb::sim::Simulator::run()"
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos || sp1 + 3 > line.size() || line[sp1 + 2] != ' ') continue;
    const char type = line[sp1 + 1];
    if (type != 'T' && type != 't' && type != 'W' && type != 'w') continue;
    const std::uintptr_t addr = std::stoull(line.substr(0, sp1), nullptr, 16);
    const std::string_view name = std::string_view(line).substr(sp1 + 3);
    if (name == anchor_name) {
      bias = anchor_addr - addr;
      anchored = true;
    }
    symbols.push_back({addr, layer_of_symbol(name)});
  }
  if (!anchored) {
    throw std::runtime_error("symbol table lacks the anchor " + std::string(anchor_name));
  }
  std::size_t capacity = 16;
  while (capacity < symbols.size() * 2) capacity *= 2;
  keys_.assign(capacity, 0);
  values_.assign(capacity, kOther);
  mask_ = capacity - 1;
  for (const Symbol& s : symbols) insert(s.addr + bias, s.layer);
}

void AddressLayerMap::insert(std::uintptr_t addr, Layer layer) {
  if (addr == 0) return;
  for (std::size_t i = (addr >> 4) & mask_;; i = (i + 1) & mask_) {
    if (keys_[i] == addr) return;  // aliases share an address
    if (keys_[i] == 0) {
      keys_[i] = addr;
      values_[i] = layer;
      ++entries_;
      return;
    }
  }
}

Layer AddressLayerMap::lookup(std::uintptr_t addr) const {
  for (std::size_t i = (addr >> 4) & mask_;; i = (i + 1) & mask_) {
    if (keys_[i] == addr) return values_[i];
    if (keys_[i] == 0) return kOther;
  }
}

}  // namespace perfbench
