// Chrome trace-event (Perfetto-compatible) export of sim::Tracer rings.
//
// Emits the JSON array format that chrome://tracing and ui.perfetto.dev
// load directly: one instant event per trace record, pid 0 ("abclsim"),
// tid = simulated node id, ts = the simulated instruction clock (the
// viewer labels it "us"; read it as instrs). The kind-specific payload
// word rides in args, so a loaded trace shows queue lengths, pattern ids
// and class ids inline.
//
// Output is a pure function of the event sequence — the cross-driver tests
// diff exporter output from serial and parallel runs byte-for-byte.
#pragma once

#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace abcl::obs {

// `events` is one sim::Tracer::snapshot(); a caller that also reads the
// events itself passes the same snapshot to both.
std::string chrome_trace_json(const std::vector<sim::Tracer::Event>& events);

}  // namespace abcl::obs
