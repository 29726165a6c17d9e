// The process-wide fork-join pool under the executor (exec/executor.h).
//
// Mechanism only: ThreadBudget decides how many threads a region may use;
// the pool supplies them. Helpers are std::threads spawned lazily, up to
// the budget's capacity minus one (the caller is always a team member).
// An idle helper spins briefly for its next region and then parks on a
// futex (std::atomic::wait), so an idle process burns no CPU and a busy
// machine is not fought over by spinning runtimes.
//
// How a region runs (RunTeam):
//   * the caller offers the region to up to max_team - 1 idle helpers,
//     then runs the task itself as tid 0;
//   * a helper that takes its offer joins as the next tid (1, 2, ...);
//   * when the caller's task returns it withdraws every offer not yet
//     taken and waits only for the helpers that joined.
// The realized team is the caller plus the helpers that joined, so it may
// be smaller than max_team (helpers busy in another region, parked ones
// waking late, a forked child that has no helper threads). Because the
// caller never waits for a helper that has not joined, nested regions and
// concurrent regions from many threads cannot deadlock.
//
// The pool lives for the whole process and its helpers are detached: a
// parked helper never holds up exit. Once exit has begun, regions run
// inline on the caller.
#ifndef PIVOTSCALE_EXEC_POOL_H_
#define PIVOTSCALE_EXEC_POOL_H_

namespace pivotscale {
namespace exec_detail {

using TeamTask = void (*)(void* context, int tid);

// Runs task(context, tid) once per team member: on the calling thread as
// tid 0 and on each helper that joins as tids 1.. < max_team. Returns the
// realized team size (>= 1) after every member has returned. The region
// (task, context) lives in the caller's frame; no helper touches it after
// RunTeam returns. `task` must not throw.
int RunTeam(int max_team, TeamTask task, void* context) noexcept;

}  // namespace exec_detail
}  // namespace pivotscale

#endif  // PIVOTSCALE_EXEC_POOL_H_
