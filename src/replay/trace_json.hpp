// Chrome trace_event JSON export of a capture: a file that loads directly
// in chrome://tracing or Perfetto (ui.perfetto.dev).
//
// Each transaction attempt is one "tx" duration slice on its thread: a B at
// its begin, closed by an E at its commit (args: reads, writes) or its
// abort (args: the cause's name, hybrid hardware-path causes as hw_*).
// Each malloc and free is an instant carrying its size (malloc), region and
// address, the address as its "+0x..." offset in the run's address space.
// Timestamps are the capture's virtual cycles on its one monotone axis,
// 1000 cycles to the displayed microsecond. A capture holds every
// operation of its runs, so every B has its E, and a seeded run exports
// the same bytes in every process.
#pragma once

#include <string>

#include "replay/trace_format.hpp"

namespace tmx::replay {

std::string chrome_trace_json(const Trace& t);

}  // namespace tmx::replay
