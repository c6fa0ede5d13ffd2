// Entry points of the -finstrument-functions hooks (traced build only).
#pragma once

#include <string>

#include "span_accounting.hpp"

namespace perfbench {

/// Loads the `nm -C` symbol table of the running binary and starts
/// accounting. Throws std::runtime_error when the table does not match.
void trace_load(const std::string& nm_path);

/// Zeroes the per-layer totals; call with no instrumented frame open.
void trace_reset();

const LayerTotals& trace_totals();

}  // namespace perfbench
