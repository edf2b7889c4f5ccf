// Model-checker instrumentation points for lock-free code.
//
// The deterministic interleaving explorer (tests/sched/sched.h, built only
// into the sched tests) serializes real threads and only switches between
// them at *decision points*. For mutex-based structures, op-call
// granularity is enough — each public operation is atomic under its lock,
// so interleaving whole calls covers every observable schedule. Lock-free
// algorithms (the flight-recorder ring, Gauge's CAS loop) have races *inside*
// one call, so those sites carry an ULLSNN_TEST_POINT("name") marker at each
// capability-free program point where a context switch could change the
// outcome.
//
// Production cost: one relaxed load of a null function pointer and an
// untaken branch — no fence, no call. The hook is process-global and only
// installed by the sched harness while a model test runs single-process.
//
// Placement rule: test points must sit at points where the thread holds no
// lock and spins on no other thread's progress; yielding inside a held
// critical section or a busy-wait would deadlock the cooperative scheduler,
// which runs exactly one thread at a time.
#pragma once

#include <atomic>

namespace ullsnn::sched {

using TestPointFn = void (*)(const char* name);

/// Global hook; null in production. The sched harness installs a trampoline
/// that parks the calling thread until the scheduler grants it the next step.
/// relaxed: the hook is installed before any model thread starts and removed
/// after all join; within a run the pointer never changes, so no ordering is
/// needed — thread creation/join provide the happens-before edges.
inline std::atomic<TestPointFn> g_test_point{nullptr};

inline void test_point(const char* name) noexcept {
  TestPointFn fn = g_test_point.load(std::memory_order_relaxed);
  if (fn != nullptr) fn(name);
}

}  // namespace ullsnn::sched

/// Marks a schedulable decision point inside lock-free code. `name` shows up
/// in schedule traces when reproducing a failure.
#define ULLSNN_TEST_POINT(name) ::ullsnn::sched::test_point(name)
