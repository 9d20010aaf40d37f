#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/profile.hpp"
#include "platform/scheduler.hpp"

namespace ascp::platform {
namespace {

TEST(Scheduler, BaseTaskRunsEveryTick) {
  Scheduler sched(1000.0);
  int count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_ticks(100);
  EXPECT_EQ(count, 100);
}

TEST(Scheduler, DividedTaskRunsEveryNth) {
  Scheduler sched(1000.0);
  int fast = 0, slow = 0;
  sched.every(1, [&] { ++fast; });
  sched.every(8, [&] { ++slow; });
  sched.run_ticks(64);
  EXPECT_EQ(fast, 64);
  EXPECT_EQ(slow, 8);
}

TEST(Scheduler, OrderWithinTickIsRegistrationOrder) {
  Scheduler sched(1000.0);
  std::vector<int> order;
  sched.every(1, [&] { order.push_back(1); });
  sched.every(1, [&] { order.push_back(2); });
  sched.tick();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, RunSecondsConverts) {
  Scheduler sched(1.92e6);
  long count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_seconds(0.001);
  EXPECT_EQ(count, 1920);
  EXPECT_NEAR(sched.now(), 0.001, 1e-9);
}

TEST(Scheduler, InvalidDividerThrows) {
  Scheduler sched(1000.0);
  EXPECT_THROW(sched.every(0, [] {}), std::invalid_argument);
}

TEST(Scheduler, FirstTickFiresAllTasks) {
  Scheduler sched(100.0);
  int hits = 0;
  sched.every(50, [&] { ++hits; });
  sched.tick();
  EXPECT_EQ(hits, 1);  // tick 0 is a multiple of every divider
}

TEST(Scheduler, TimeAccountingMatchesTicks) {
  Scheduler sched(240e3);
  sched.run_ticks(240);
  EXPECT_NEAR(sched.now(), 0.001, 1e-12);
  EXPECT_EQ(sched.ticks(), 240);
  EXPECT_DOUBLE_EQ(sched.dt(), 1.0 / 240e3);
}

TEST(Scheduler, RegistrationOrderHoldsAcrossMixedDividers) {
  // Within one tick every due task fires in registration order, regardless
  // of divider — the engine relies on this for its analog → sample → DSP →
  // supervisor → output pipeline ordering.
  Scheduler sched(1000.0);
  std::vector<int> order;
  sched.every(4, [&] { order.push_back(1); });
  sched.every(1, [&] { order.push_back(2); });
  sched.every(2, [&] { order.push_back(3); });
  sched.run_ticks(4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3,  // tick 0: all due
                                     2,        // tick 1
                                     2, 3,     // tick 2
                                     2}));     // tick 3
}

TEST(Scheduler, RunSecondsRoundsHalfUpToNearestTick) {
  // run_seconds() rounds seconds*base_rate to the nearest tick (half-up),
  // the same convention the pre-refactor loops used — so a 0.9999-tick
  // request runs one tick and a 0.4-tick request runs none.
  Scheduler sched(1000.0);
  long count = 0;
  sched.every(1, [&] { ++count; });
  sched.run_seconds(0.0004);  // 0.4 ticks -> 0
  EXPECT_EQ(count, 0);
  sched.run_seconds(0.0005);  // 0.5 ticks -> 1 (half rounds up)
  EXPECT_EQ(count, 1);
  sched.run_seconds(0.0034999);  // 3.4999 ticks -> 3
  EXPECT_EQ(count, 4);
}

TEST(Scheduler, PhaseOffsetShiftsFiring) {
  Scheduler sched(1000.0);
  std::vector<long> fired_at;
  sched.every(8, 7, [&] { fired_at.push_back(sched.ticks()); });
  sched.run_ticks(24);
  EXPECT_EQ(fired_at, (std::vector<long>{7, 15, 23}));
}

TEST(Scheduler, PhasePersistsAcrossRunCalls) {
  // A divider-8 phase-7 task keeps its alignment across run_* boundaries
  // that are not divider multiples (the baseline channel depends on this).
  Scheduler sched(1000.0);
  long count = 0;
  sched.every(8, 7, [&] { ++count; });
  sched.run_ticks(11);  // fires at tick 7
  EXPECT_EQ(count, 1);
  sched.run_ticks(5);   // ticks 11..15: fires at 15
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, InvalidPhaseThrows) {
  Scheduler sched(1000.0);
  EXPECT_THROW(sched.every(8, 8, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.every(8, -1, [] {}), std::invalid_argument);
  EXPECT_THROW(sched.every(0, 0, [] {}), std::invalid_argument);
}

TEST(Scheduler, ProfilerCountsInvocationsPerTask) {
  Scheduler sched(1000.0);
  long fast = 0, slow = 0;
  sched.every(1, [&] { ++fast; }, "fast");
  obs::TaskProfiler prof;
  sched.set_profiler(&prof);  // attach after one registration…
  sched.every(8, 7, [&] { ++slow; }, "slow");  // …and register one while attached
  EXPECT_DOUBLE_EQ(prof.base_rate(), 1000.0);
  sched.run_ticks(64);

  EXPECT_EQ(fast, 64);
  EXPECT_EQ(slow, 8);
  ASSERT_EQ(prof.task_count(), 2u);
  const auto& stats = prof.stats();
  EXPECT_EQ(stats[0].name, "fast");
  EXPECT_EQ(stats[0].invocations, 64u);
  EXPECT_EQ(stats[0].divider, 1);
  EXPECT_EQ(stats[1].name, "slow");
  EXPECT_EQ(stats[1].invocations, 8u);
  EXPECT_EQ(stats[1].divider, 8);
  EXPECT_EQ(stats[1].phase, 7);
  EXPECT_GE(stats[0].wall_seconds, 0.0);
  // One slice per invocation, on the scheduler's tick axis.
  EXPECT_EQ(prof.slices().size(), 72u);
  EXPECT_EQ(prof.slices_dropped(), 0u);
}

TEST(Scheduler, ProfilerDoesNotChangeFiringPattern) {
  // Same tasks, one scheduler profiled and one not: identical firing order.
  const auto firing_log = [](bool profiled) {
    Scheduler sched(1000.0);
    obs::TaskProfiler prof;
    std::vector<std::pair<char, long>> log;
    sched.every(2, [&] { log.emplace_back('a', sched.ticks()); }, "a");
    sched.every(8, 7, [&] { log.emplace_back('b', sched.ticks()); }, "b");
    if (profiled) sched.set_profiler(&prof);
    sched.run_ticks(32);
    return log;
  };
  EXPECT_EQ(firing_log(false), firing_log(true));
}

TEST(Scheduler, LateRegistrationAndSetTicksKeepModuloRule) {
  // Tasks fire when ticks() % divider == phase, whenever they were
  // registered and wherever set_ticks() moved the counter.
  Scheduler sched(1000.0);
  std::vector<std::pair<long, int>> log;
  const std::vector<std::pair<long, long>> specs = {{1, 0}, {8, 7}, {3, 1}, {5, 0}, {8, 0}};
  auto add = [&](int id) {
    const auto [div, ph] = specs[static_cast<std::size_t>(id)];
    sched.every(div, ph, [&log, &sched, id] { log.emplace_back(sched.ticks(), id); });
  };
  add(0);
  add(1);
  sched.run_ticks(13);
  add(2);  // registered mid-cycle of every divider
  sched.run_ticks(10);
  sched.set_ticks(1003);
  add(3);
  sched.run_ticks(17);
  sched.set_ticks(6);  // backwards, as a checkpoint restore may do
  add(4);
  sched.run_ticks(19);

  std::vector<std::pair<long, int>> want;
  auto expect_span = [&](long from, long to, int n_tasks) {
    for (long t = from; t < to; ++t)
      for (int id = 0; id < n_tasks; ++id) {
        const auto [div, ph] = specs[static_cast<std::size_t>(id)];
        if (t % div == ph) want.emplace_back(t, id);
      }
  };
  expect_span(0, 13, 2);
  expect_span(13, 23, 3);
  expect_span(1003, 1020, 4);
  expect_span(6, 25, 5);
  EXPECT_EQ(log, want);
  EXPECT_THROW(sched.set_ticks(-1), std::invalid_argument);
}

TEST(Scheduler, ProfilerDetachStopsRecording) {
  Scheduler sched(1000.0);
  obs::TaskProfiler prof;
  sched.every(1, [] {}, "t");
  sched.set_profiler(&prof);
  sched.run_ticks(10);
  sched.set_profiler(nullptr);
  sched.run_ticks(10);
  ASSERT_EQ(prof.task_count(), 1u);
  EXPECT_EQ(prof.stats()[0].invocations, 10u);  // only the attached window
}

}  // namespace
}  // namespace ascp::platform
