// The GCC -finstrument-functions hooks. This file is compiled without
// instrumentation; only the traced copy of src/ calls into it.
#include "trace_hooks.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/scenario.hpp"

namespace perfbench {

namespace {

// Set once by trace_load and never destroyed: the hooks also run for
// instrumented code during static destruction.
const AddressLayerMap* g_map = nullptr;
SpanAccounting* g_spans = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void trace_load(const std::string& nm_path) {
  std::ifstream in(nm_path);
  if (!in) throw std::runtime_error("cannot read symbol table " + nm_path);
  std::ostringstream text;
  text << in.rdbuf();
  if (g_map != nullptr) throw std::logic_error("trace_load called twice");
  g_spans = new SpanAccounting();
  g_map = new AddressLayerMap(text.str(),
                              "brb::core::run_scenario(brb::core::ScenarioConfig const&)",
                              reinterpret_cast<std::uintptr_t>(&brb::core::run_scenario));
}

void trace_reset() { g_spans->reset(); }

const LayerTotals& trace_totals() { return g_spans->totals(); }

}  // namespace perfbench

extern "C" {

// Before trace_load (static initialisers, set-up) both hooks are
// no-ops, so enters and exits stay paired.
void __cyg_profile_func_enter(void* fn, void* /*call_site*/) {
  using namespace perfbench;
  if (g_map == nullptr) return;
  const Layer layer = g_map->lookup(reinterpret_cast<std::uintptr_t>(fn));
  g_spans->enter(layer, g_spans->crosses(layer) ? now_ns() : 0);
}

void __cyg_profile_func_exit(void* /*fn*/, void* /*call_site*/) {
  using namespace perfbench;
  if (g_map == nullptr || g_spans->depth() == 0) return;
  g_spans->exit(g_spans->exit_closes() ? now_ns() : 0);
}

}  // extern "C"
