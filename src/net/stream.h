// Stream front end for the clique-query service: the NDJSON protocol
// (src/service/protocol.h) over one input and one output stream, which is
// how pivotscale_served serves stdin/stdout when run without --port.
//
// Lines are framed by the same ReadLineFramer as the TCP connections,
// turned into requests by the same ParseNetLine, and each batch — ended
// by a blank line or by end of input — is answered by the same
// ServeNetBatch the worker pool runs. Grouping, deadlines, oversized
// lines and per-line errors therefore behave exactly as over TCP; there
// is no admission queue, so nothing is ever shed.
#ifndef PIVOTSCALE_NET_STREAM_H_
#define PIVOTSCALE_NET_STREAM_H_

#include <cstddef>
#include <istream>
#include <ostream>

#include "service/query_engine.h"

namespace pivotscale {

class TelemetryRegistry;

// Serves `in` until end of input, writing each batch's responses to `out`
// (flushed per batch, in request order). `telemetry` may be null.
void ServeStream(QueryEngine& engine, std::istream& in, std::ostream& out,
                 std::size_t max_line_bytes, TelemetryRegistry* telemetry);

}  // namespace pivotscale

#endif  // PIVOTSCALE_NET_STREAM_H_
