// The unified parallel execution layer. Every parallel loop in the tree
// runs through these primitives, on the process-wide fork-join pool of
// exec/pool.h; nothing in the tree uses OpenMP (tools/lint.py
// `no-openmp`).
//
// What this layer adds over a bare fork-join loop:
//   * a team leased from the process-wide ThreadBudget, so concurrent
//     regions (serving workers x counting teams) cannot oversubscribe the
//     machine;
//   * per-worker reduction slots: each worker gets a private accumulator
//     built by a factory and the caller merges them serially after the
//     region — no locks anywhere;
//   * cost-weighted adaptive chunking: an optional per-item cost estimate
//     turns into chunk boundaries of roughly equal estimated work, so a
//     few heavy items do not serialize the tail of the loop;
//   * `exec.*` telemetry: tasks, chunks, splits, per-worker busy-second
//     and chunk-count series, team size, and busy-time CoV.
//
// Sizing is always realized-team authoritative: per-worker arrays are
// trimmed to the threads that actually joined the region, never sized to
// the request or the grant (the pool may deliver fewer, e.g. when its
// helpers are busy in another region or a parked helper wakes too late).
#ifndef PIVOTSCALE_EXEC_EXECUTOR_H_
#define PIVOTSCALE_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "exec/pool.h"
#include "exec/thread_budget.h"
#include "util/check.h"
#include "util/timer.h"

namespace pivotscale {

class TelemetryRegistry;

struct ExecOptions {
  // Requested team size; 0 = everything the budget has free. The actual
  // grant comes from ThreadBudget::Global().
  int num_threads = 0;
  // Minimum items per chunk (uniform mode) / minimum items between two
  // cost-weighted cuts.
  std::size_t grain = 1;
  // Target chunks per worker. Higher = finer-grained self-scheduling;
  // 1 reproduces a static partition (one contiguous block per worker).
  int chunks_per_worker = 8;
  // Optional per-item work estimate. When set, chunk boundaries equalize
  // estimated work instead of item count.
  std::function<double(std::size_t)> cost;
  // Number of long-tail splits the caller performed while building the
  // item list (recorded as exec.splits; the executor itself runs whatever
  // list it is given).
  std::uint64_t splits = 0;
  // When non-null the region records exec.* metrics here. Not owned.
  TelemetryRegistry* telemetry = nullptr;
};

// What one region observed. worker_* vectors are sized to the realized
// team, not the request.
struct ExecStats {
  int team = 0;
  std::uint64_t tasks = 0;   // items handed to the region
  std::uint64_t chunks = 0;  // chunk count after (cost-weighted) slicing
  std::uint64_t splits = 0;  // copied from ExecOptions::splits
  double seconds = 0;        // region wall time
  std::vector<double> worker_busy_seconds;
  std::vector<std::uint64_t> worker_chunks;
};

namespace exec_detail {

// Chunk boundaries for n items: bounds[c]..bounds[c+1] is chunk c.
// Uniform when options.cost is unset, estimated-work-equalizing otherwise.
std::vector<std::size_t> BuildChunkBounds(std::size_t n, int team,
                                          const ExecOptions& options);

void RecordExecTelemetry(TelemetryRegistry* telemetry,
                         const ExecStats& stats);

}  // namespace exec_detail

// The core primitive: runs `body(worker, item)` over items [0, n) on a
// leased team. Each realized worker owns a private `Worker` built by
// `make_worker(tid)`; after the region, `merge(worker)` runs serially
// (in tid order) over every constructed worker. Workers pull chunks off a
// shared atomic cursor, so a worker finishing early keeps eating chunks.
template <typename MakeWorker, typename Body, typename Merge>
ExecStats ParallelForWorkers(std::size_t n, const ExecOptions& options,
                             MakeWorker&& make_worker, Body&& body,
                             Merge&& merge) {
  using Worker = std::decay_t<decltype(make_worker(0))>;

  ThreadLease lease = ThreadBudget::Global().Acquire(options.num_threads);
  const int granted = lease.threads();
  const std::vector<std::size_t> bounds =
      exec_detail::BuildChunkBounds(n, granted, options);
  const std::size_t num_chunks = bounds.empty() ? 0 : bounds.size() - 1;

  ExecStats stats;
  stats.tasks = n;
  stats.chunks = num_chunks;
  stats.splits = options.splits;

  stats.worker_busy_seconds.assign(granted, 0.0);
  stats.worker_chunks.assign(granted, 0);
  std::vector<std::optional<Worker>> slots(
      static_cast<std::size_t>(granted));
  std::atomic<std::size_t> cursor{0};
  auto run_worker = [&](int tid) {
    DCHECK_LT(static_cast<std::size_t>(tid), slots.size());
    slots[tid].emplace(make_worker(tid));
    std::uint64_t my_chunks = 0;
    Timer busy;
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      ++my_chunks;
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i)
        body(*slots[tid], i);
    }
    stats.worker_busy_seconds[tid] = busy.Seconds();
    stats.worker_chunks[tid] = my_chunks;
  };
  using RunWorker = decltype(run_worker);
  // Members beyond the chunk count would join only to find nothing left.
  const int max_team = static_cast<int>(std::min<std::size_t>(
      granted, std::max<std::size_t>(num_chunks, 1)));
  Timer wall;
  stats.team = exec_detail::RunTeam(
      max_team,
      [](void* context, int tid) {
        (*static_cast<RunWorker*>(context))(tid);
      },
      &run_worker);
  stats.seconds = wall.Seconds();
  // The realized team is authoritative: tids 0..team-1 ran.
  stats.worker_busy_seconds.resize(stats.team);
  stats.worker_chunks.resize(stats.team);

  for (auto& slot : slots)
    if (slot.has_value()) merge(*slot);

  exec_detail::RecordExecTelemetry(options.telemetry, stats);
  return stats;
}

// Loop without worker state: body(item).
template <typename Body>
ExecStats ParallelFor(std::size_t n, const ExecOptions& options,
                      Body&& body) {
  struct Unit {};
  return ParallelForWorkers(
      n, options, [](int) { return Unit{}; },
      [&body](Unit&, std::size_t i) { body(i); }, [](Unit&) {});
}

// Scalar (or struct) reduction: every worker folds into a private copy of
// `identity` via body(acc, item); partials combine serially with
// combine(result, partial). Deterministic given a deterministic combine
// over any partition (the usual requirement for parallel reductions).
template <typename T, typename Body, typename Combine>
T ParallelReduce(std::size_t n, const ExecOptions& options, T identity,
                 Body&& body, Combine&& combine) {
  T result = identity;
  ParallelForWorkers(
      n, options, [&identity](int) { return identity; },
      [&body](T& acc, std::size_t i) { body(acc, i); },
      [&result, &combine](T& partial) { combine(result, partial); });
  return result;
}

}  // namespace pivotscale

#endif  // PIVOTSCALE_EXEC_EXECUTOR_H_
