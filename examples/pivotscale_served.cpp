// Clique-query server over preprocessed .psx artifacts.
//
// Speaks the NDJSON protocol of src/service/protocol.h — one request per
// line, one response per line in request order, and a blank line (or end
// of input) flushes the pending lines as one deduplicated batch — in one
// of two modes, chosen by whether --port is given:
//
//  * stdin/stdout (no --port): requests are read from stdin until EOF
//    through ServeStream (src/net/stream.*). Run on a terminal, the
//    binary prints the usage banner and exits instead of waiting.
//  * TCP (--port P): many clients at once, served by an epoll event loop
//    (src/net/event_loop.*) in front of a fixed worker pool with a
//    bounded admission queue (src/net/worker_pool.*). Overload sheds with
//    {"ok":false,"error":"overloaded"}; SIGTERM/SIGINT drain gracefully
//    (stop accepting, finish in-flight batches, flush every response,
//    exit 0). --port 0 picks an ephemeral port; the bound port is printed
//    on stdout and, with --port-file, written bare to that file.
//
// Both modes share the line framing, the batching and the per-request
// "deadline_ms" check ("deadline exceeded"), so a request gets the same
// answer either way.
//
// Usage:
//   pivotscale_served [--max-line-bytes N] [--cache-bytes N] [--threads N]
//                     [--preload a.psx,b.psx] [--telemetry-json out.json]
//                     [--version]  < requests.ndjson
//   pivotscale_served --port P [--bind 127.0.0.1] [--max-connections N]
//                     [--queue-depth N] [--workers N] [--port-file path]
//                     [shared flags above]
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/stream.h"
#include "service/query_engine.h"
#include "util/cli.h"
#include "util/telemetry.h"
#include "util/version.h"

using namespace pivotscale;

namespace {

constexpr char kUsage[] =
    "pivotscale_served: NDJSON clique-query server over .psx artifacts\n"
    "  pivotscale_served [shared flags] < requests.ndjson   (stdin/stdout)\n"
    "  pivotscale_served --port P [--bind 127.0.0.1]         (TCP)\n"
    "                    [--max-connections N] [--queue-depth N]\n"
    "                    [--workers N] [--port-file path] [shared flags]\n"
    "  shared flags: [--max-line-bytes N] [--cache-bytes N] [--threads N]\n"
    "                [--preload a.psx,b.psx] [--telemetry-json out.json]\n"
    "  request : {\"id\":1,\"graph\":\"g.psx\",\"k\":8}  (id required, >= 0)\n"
    "            optional keys: all_k, per_vertex, top,\n"
    "            deadline_ms (expired work answers \"deadline exceeded\")\n"
    "  a blank line flushes the pending lines as one deduplicated batch;\n"
    "  over TCP a full admission queue answers \"overloaded\" instead of\n"
    "  queueing, and SIGTERM/SIGINT drain gracefully. See docs/serving.md.\n";

NetServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const bool tcp = args.Has("port");
    std::vector<std::string> known = {"max-line-bytes", "cache-bytes",
                                      "threads",        "preload",
                                      "telemetry-json", "version",
                                      "help"};
    if (tcp)
      known.insert(known.end(), {"port", "bind", "max-connections",
                                 "queue-depth", "workers", "port-file"});
    args.RejectUnknown(known);
    if (args.GetBool("version", false)) {
      std::cout << "pivotscale_served " << VersionString() << "\n";
      return 0;
    }
    // On a terminal, stdin mode would block on a silent read: print the
    // usage banner instead.
    if (args.GetBool("help", false) || (!tcp && isatty(fileno(stdin)))) {
      std::cout << kUsage;
      return 0;
    }

    const std::string telemetry_path =
        args.GetString("telemetry-json", "");
    TelemetryRegistry telemetry;
    TelemetryRegistry* const telemetry_ptr =
        telemetry_path.empty() ? nullptr : &telemetry;

    QueryEngineOptions engine_options;
    engine_options.cache_byte_budget = static_cast<std::size_t>(
        args.GetInt("cache-bytes", std::int64_t{1} << 30));
    engine_options.num_threads = args.GetThreads();
    engine_options.telemetry = telemetry_ptr;
    QueryEngine engine(engine_options);

    std::stringstream preload_list(args.GetString("preload", ""));
    std::string preload_path;
    while (std::getline(preload_list, preload_path, ',')) {
      if (preload_path.empty()) continue;
      engine.Preload(preload_path);
      std::cerr << "preloaded " << preload_path << "\n";
    }

    const auto max_line_bytes = static_cast<std::size_t>(args.GetInt(
        "max-line-bytes",
        static_cast<std::int64_t>(ReadLineFramer::kDefaultMaxLineBytes)));

    if (tcp) {
      NetServerOptions options;
      options.bind_address = args.GetString("bind", "127.0.0.1");
      options.port = static_cast<std::uint16_t>(args.GetInt("port", 0));
      options.max_connections =
          static_cast<int>(args.GetInt("max-connections", 1024));
      options.queue_depth =
          static_cast<std::size_t>(args.GetInt("queue-depth", 64));
      options.workers = args.GetThreads("workers", 2);
      options.max_line_bytes = max_line_bytes;
      options.telemetry = telemetry_ptr;

      NetServer server(&engine, options);
      server.Start();
      g_server = &server;
      std::signal(SIGTERM, HandleSignal);
      std::signal(SIGINT, HandleSignal);

      const std::string port_file = args.GetString("port-file", "");
      if (!port_file.empty()) {
        std::ofstream out(port_file);
        if (!out)
          throw std::runtime_error("cannot write --port-file " + port_file);
        out << server.port() << "\n";
      }
      std::cout << "pivotscale_served: listening on "
                << options.bind_address << ":" << server.port()
                << " (workers=" << options.workers
                << ", queue-depth=" << options.queue_depth << ")"
                << std::endl;

      server.Run();
      g_server = nullptr;
      std::cout << "pivotscale_served: drained, exiting\n";
    } else {
      ServeStream(engine, std::cin, std::cout, max_line_bytes,
                  telemetry_ptr);
    }

    if (telemetry_ptr != nullptr) {
      WriteRunReport(telemetry_path, telemetry);
      std::cerr << "telemetry written to " << telemetry_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
