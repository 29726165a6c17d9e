#include "exec/pool.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "exec/thread_budget.h"

namespace pivotscale {
namespace exec_detail {
namespace {

// Polls a waiting thread makes before it parks: about 30 us at the ~15 ns
// a pause takes on the 4-vCPU Xeon host the suite is measured on. Long
// enough that the back-to-back rounds of the bulk-peeling orderings find
// their helpers awake (parking and waking costs 6-25 us per region);
// short enough that an idle or oversubscribed process stops spinning
// almost at once.
constexpr int kSpinIterations = 2048;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Set once exit has begun; regions started after that run inline.
std::atomic<bool> g_exiting{false};

struct Region {
  TeamTask task;
  void* context;
  std::atomic<int> next_tid{1};
};

// A helper's mailbox state. One cycle: kIdle -> kReserved (a caller owns
// the slot) -> kOffered -> kRunning (the helper joined) -> kDone -> kIdle
// (the caller released it). A caller withdraws an offer not yet taken
// with kOffered -> kIdle. At most one thread ever waits on a slot: the
// helper while it awaits an offer, or the caller while it awaits kDone.
enum : std::uint32_t { kIdle, kReserved, kOffered, kRunning, kDone };

struct alignas(64) Slot {
  std::atomic<std::uint32_t> state{kIdle};
  Region* region = nullptr;  // read by the helper only once it is kRunning
  Slot* next = nullptr;      // immutable once the slot is published
};

// Spins, then parks on the futex, until done(state) holds.
template <typename Done>
void SpinThenPark(const std::atomic<std::uint32_t>& state, Done done) {
  for (int i = 0; i < kSpinIterations; ++i) {
    if (done(state.load(std::memory_order_acquire))) return;
    CpuRelax();
  }
  for (;;) {
    const std::uint32_t seen = state.load(std::memory_order_acquire);
    if (done(seen)) return;
    state.wait(seen, std::memory_order_relaxed);
  }
}

void HelperLoop(Slot* slot) {
  for (;;) {
    SpinThenPark(slot->state, [](std::uint32_t s) { return s == kOffered; });
    std::uint32_t offered = kOffered;
    if (!slot->state.compare_exchange_strong(offered, kRunning,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
      continue;  // the caller withdrew the offer first
    Region* region = slot->region;
    region->task(region->context,
                 region->next_tid.fetch_add(1, std::memory_order_relaxed));
    // The region lives in the caller's frame: nothing of it is touched
    // from here on.
    slot->state.store(kDone, std::memory_order_release);
    slot->state.notify_one();
  }
}

class Pool {
 public:
  // Never destroyed: detached helpers may still be parked on its slots
  // while static destructors run.
  static Pool& Instance() {
    static Pool* const pool = std::make_unique<Pool>().release();
    return *pool;
  }

  Pool() {
    std::atexit([] { g_exiting.store(true, std::memory_order_relaxed); });
  }

  // Offers `region` to up to `want` idle helpers, spawning new ones while
  // the pool is below the budget's capacity - 1; appends the slots
  // offered to `offered`.
  void Offer(Region* region, int want, std::vector<Slot*>* offered) {
    for (Slot* slot = head_.load(std::memory_order_acquire);
         slot != nullptr && static_cast<int>(offered->size()) < want;
         slot = slot->next) {
      std::uint32_t idle = kIdle;
      if (slot->state.load(std::memory_order_relaxed) != kIdle ||
          !slot->state.compare_exchange_strong(idle, kReserved,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed))
        continue;
      slot->region = region;
      slot->state.store(kOffered, std::memory_order_release);
      slot->state.notify_one();
      offered->push_back(slot);
    }
    if (static_cast<int>(offered->size()) < want)
      Spawn(region, want - static_cast<int>(offered->size()), offered);
  }

 private:
  void Spawn(Region* region, int want, std::vector<Slot*>* offered) {
    std::lock_guard<std::mutex> lock(spawn_mutex_);
    const int limit = ThreadBudget::Global().capacity() - 1;
    for (; want > 0 && static_cast<int>(owned_.size()) < limit; --want) {
      auto slot = std::make_unique<Slot>();
      slot->region = region;
      slot->state.store(kOffered, std::memory_order_relaxed);
      try {
        std::thread(HelperLoop, slot.get()).detach();
      } catch (const std::system_error&) {
        return;  // no more threads: run with the team we have
      }
      slot->next = head_.load(std::memory_order_relaxed);
      head_.store(slot.get(), std::memory_order_release);
      offered->push_back(slot.get());
      owned_.push_back(std::move(slot));
    }
  }

  std::atomic<Slot*> head_{nullptr};
  std::mutex spawn_mutex_;
  std::vector<std::unique_ptr<Slot>> owned_;  // one per helper thread
};

}  // namespace

int RunTeam(int max_team, TeamTask task, void* context) noexcept {
  if (max_team <= 1 || g_exiting.load(std::memory_order_relaxed)) {
    task(context, 0);
    return 1;
  }
  Region region{task, context};
  std::vector<Slot*> offered;
  offered.reserve(static_cast<std::size_t>(max_team - 1));
  Pool::Instance().Offer(&region, max_team - 1, &offered);

  task(context, 0);

  for (Slot* slot : offered) {
    std::uint32_t expected = kOffered;
    if (slot->state.compare_exchange_strong(expected, kIdle,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire))
      continue;  // withdrawn before the helper joined
    SpinThenPark(slot->state, [](std::uint32_t s) { return s == kDone; });
    slot->state.store(kIdle, std::memory_order_release);
  }
  return region.next_tid.load(std::memory_order_relaxed);
}

}  // namespace exec_detail
}  // namespace pivotscale
