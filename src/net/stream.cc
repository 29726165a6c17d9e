#include "net/stream.h"

#include <optional>
#include <vector>

#include "net/framer.h"
#include "net/worker_pool.h"

namespace pivotscale {

void ServeStream(QueryEngine& engine, std::istream& in, std::ostream& out,
                 std::size_t max_line_bytes, TelemetryRegistry* telemetry) {
  ReadLineFramer framer(max_line_bytes);
  std::vector<NetRequest> pending;
  auto flush = [&] {
    if (pending.empty()) return;
    out << ServeNetBatch(engine, pending, telemetry) << std::flush;
    pending.clear();
  };
  auto process = [&](const FramedLine& line) {
    if (std::optional<NetRequest> req = ParseNetLine(line, max_line_bytes))
      pending.push_back(std::move(*req));
    else
      flush();
  };

  // getline returns at every '\n', so a batch is answered as soon as its
  // blank line arrives, not when a read buffer fills; a line longer than
  // the buffer arrives in pieces, which the framer bounds.
  char buf[16384];
  std::vector<FramedLine> lines;
  for (;;) {
    in.getline(buf, sizeof(buf));
    const auto n = static_cast<std::size_t>(in.gcount());
    const bool at_end = in.eof() || in.bad();
    const bool split = in.fail() && !at_end;  // buffer full mid-line
    // gcount counted the extracted '\n', which getline did not store.
    if (!at_end && !split) buf[n - 1] = '\n';
    lines.clear();
    framer.Feed(buf, n, &lines);
    for (const FramedLine& line : lines) process(line);
    if (at_end) break;
    in.clear();
  }
  FramedLine last;
  if (framer.Finish(&last)) process(last);
  flush();
}

}  // namespace pivotscale
