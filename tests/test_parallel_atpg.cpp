// Fault-parallel engine: thread-pool behaviour and the headline guarantee
// that run_atpg is byte-identical at any AtpgOptions::threads.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace cwatpg::fault {
namespace {

// ---------------------------------------------------------------- pool --

TEST(ThreadPool, RunsTenThousandNoOpTasks) {
  ThreadPool pool(4);
  std::atomic<std::size_t> counter{0};
  for (std::size_t i = 0; i < 10000; ++i)
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10000u);
}

TEST(ThreadPool, WaitIdleCoversTasksSpawnedByTasks) {
  ThreadPool pool(3);
  std::atomic<std::size_t> counter{0};
  for (std::size_t i = 0; i < 64; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 128u);
}

TEST(ThreadPool, RunsTasksInSubmissionOrder) {
  // One worker, so the run order is the queue's order. The first task
  // holds the worker until the other nine are queued behind it.
  ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool all_queued = false;
  std::vector<int> order;  // appended by the one worker only
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return all_queued; });
    order.push_back(0);
  });
  for (int i = 1; i < 10; ++i) pool.submit([&order, i] { order.push_back(i); });
  {
    std::lock_guard<std::mutex> lock(mutex);
    all_queued = true;
  }
  cv.notify_all();
  pool.wait_idle();
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, WorkerIndexIsInRangeInsideAndSentinelOutside) {
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::kNotAWorker);
  ThreadPool pool(2);
  std::atomic<bool> in_range{true};
  for (std::size_t i = 0; i < 100; ++i) {
    pool.submit([&pool, &in_range] {
      if (ThreadPool::worker_index() >= pool.size()) in_range = false;
    });
  }
  pool.wait_idle();
  EXPECT_TRUE(in_range.load());
}

TEST(ThreadPool, PoolIsUsableFromAnotherPoolsWorker) {
  // A task on pool A drives pool B — submit, wait_idle — the way a served
  // parallel run_atpg drives its private pool from a server pool worker.
  // To B, A's worker is an outside thread: no "called from inside the
  // pool" assert, and B's tasks run on B's own workers.
  ThreadPool a(3);
  ThreadPool b(2);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> b_index_in_range{true};
  a.submit([&] {
    for (std::size_t i = 0; i < 16; ++i) {
      b.submit([&] {
        if (ThreadPool::worker_index() >= b.size()) b_index_in_range = false;
        submitted.fetch_add(1, std::memory_order_relaxed);
      });
    }
    b.wait_idle();
  });
  a.wait_idle();
  EXPECT_EQ(submitted.load(), 16u);
  EXPECT_TRUE(b_index_in_range.load());
}

TEST(ThreadPool, SubmitTaskExceptionRethrownAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  for (std::size_t i = 0; i < 16; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::runtime_error("task boom");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16u);  // one throwing task never stalls the drain
  // The error is consumed: the pool stays usable and a second wait_idle
  // does not rethrow.
  std::atomic<int> after{0};
  pool.submit([&after] { after = 1; });
  pool.wait_idle();
  EXPECT_EQ(after.load(), 1);
}

TEST(ThreadPool, OnlyFirstSubmitExceptionIsKept) {
  ThreadPool pool(2);
  for (std::size_t i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("each task throws"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // later captures were dropped, nothing left to throw
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<std::size_t> counter{0};
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < 500; ++i)
      pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    // no wait_idle: the destructor must drain, not drop
  }
  EXPECT_EQ(counter.load(), 500u);
}

TEST(SplitSeed, StreamsAreDistinctAndDeterministic) {
  EXPECT_EQ(split_seed(42, 3), split_seed(42, 3));
  EXPECT_NE(split_seed(42, 0), split_seed(42, 1));
  EXPECT_NE(split_seed(42, 0), split_seed(43, 0));
}

// ------------------------------------------------- serial == parallel --

void expect_byte_identical(const AtpgResult& serial,
                           const AtpgResult& parallel) {
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const FaultOutcome& s = serial.outcomes[i];
    const FaultOutcome& p = parallel.outcomes[i];
    EXPECT_EQ(s.fault, p.fault) << "fault " << i;
    EXPECT_EQ(s.status, p.status) << "fault " << i;
    EXPECT_EQ(s.engine, p.engine) << "fault " << i;
    EXPECT_EQ(s.attempts, p.attempts) << "fault " << i;
    EXPECT_EQ(s.test_index, p.test_index) << "fault " << i;
    EXPECT_EQ(s.sat_vars, p.sat_vars) << "fault " << i;
    EXPECT_EQ(s.sat_clauses, p.sat_clauses) << "fault " << i;
    EXPECT_EQ(s.solver_stats.conflicts, p.solver_stats.conflicts)
        << "fault " << i;
    EXPECT_EQ(s.solver_stats.decisions, p.solver_stats.decisions)
        << "fault " << i;
    EXPECT_EQ(s.solver_stats.stop_reason, p.solver_stats.stop_reason)
        << "fault " << i;
  }
  ASSERT_EQ(serial.tests.size(), parallel.tests.size());
  for (std::size_t t = 0; t < serial.tests.size(); ++t)
    EXPECT_EQ(serial.tests[t], parallel.tests[t]) << "test " << t;
  EXPECT_EQ(serial.num_detected, parallel.num_detected);
  EXPECT_EQ(serial.num_untestable, parallel.num_untestable);
  EXPECT_EQ(serial.num_aborted, parallel.num_aborted);
  EXPECT_EQ(serial.num_unreachable, parallel.num_unreachable);
  EXPECT_EQ(serial.num_undetermined, parallel.num_undetermined);
  EXPECT_EQ(serial.num_escalated, parallel.num_escalated);
  EXPECT_EQ(serial.interrupted, parallel.interrupted);
}

void check_serial_vs_parallel(const net::Network& n) {
  const AtpgResult serial = run_atpg(n);
  const std::vector<StuckAtFault> faults = collapsed_fault_list(n);
  for (std::size_t threads : {1u, 2u, 4u}) {
    AtpgOptions opts;
    opts.threads = threads;
    const AtpgResult parallel = run_atpg(n, opts);
    const ParallelStats& stats = parallel.parallel;
    SCOPED_TRACE(n.name() + " @ " + std::to_string(threads) + " threads");
    expect_byte_identical(serial, parallel);
    // The ISSUE-level contract: identical classification counts and
    // identical fault coverage of the emitted test set.
    EXPECT_DOUBLE_EQ(coverage(n, faults, serial.tests),
                     coverage(n, faults, parallel.tests));
    // Telemetry bookkeeping: every dispatched solve is either committed
    // into the result or discarded as speculative waste, and the workers
    // ran every committed solve plus the discarded ones they had started.
    EXPECT_EQ(stats.dispatched, stats.committed + stats.wasted);
    ASSERT_EQ(stats.workers.size(), threads > 1 ? threads : 0u);
    std::size_t solved = 0;
    for (const WorkerStats& w : stats.workers) solved += w.solved;
    EXPECT_GE(solved, stats.committed);
    EXPECT_LE(solved, stats.dispatched);
  }
}

TEST(ParallelAtpg, ByteIdenticalOnC17) { check_serial_vs_parallel(gen::c17()); }

TEST(ParallelAtpg, ByteIdenticalOnIscasLikeMembers) {
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.08;
  const std::vector<net::Network> suite = gen::iscas85_like_suite(suite_opts);
  ASSERT_GE(suite.size(), 2u);
  check_serial_vs_parallel(suite.front());
  check_serial_vs_parallel(suite[1]);
}

TEST(ParallelAtpg, DeterministicAcrossRepeatedRunsSameThreadCount) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.threads = 3;
  const AtpgResult a = run_atpg(n, opts);
  const AtpgResult b = run_atpg(n, opts);
  expect_byte_identical(a, b);
}

TEST(ParallelAtpg, NoRandomPhaseNoDroppingIsEmbarrassinglyParallel) {
  // The Figure-1 configuration: one SAT instance per fault, no coupling.
  const net::Network n = gen::c17();
  AtpgOptions base;
  base.random_blocks = 0;
  base.drop_by_simulation = false;
  AtpgOptions opts = base;
  opts.threads = 4;
  const AtpgResult parallel = run_atpg(n, opts);
  expect_byte_identical(run_atpg(n, base), parallel);
  // Nothing drops, so nothing is discarded.
  EXPECT_EQ(parallel.parallel.wasted, 0u);
}

TEST(ParallelAtpg, OneThreadOrFewerRunsSeriallyWithoutAPool) {
  // threads 0 and 1 both run the serial engine on the calling thread: no
  // pool (so no workers), no speculation, no parallel.* metric.
  const net::Network n = gen::c17();
  AtpgOptions base;
  base.random_blocks = 0;  // every fault through SAT
  const AtpgResult reference = run_atpg(n, base);
  for (std::size_t threads : {0u, 1u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry metrics;
    AtpgOptions opts = base;
    opts.threads = threads;
    opts.metrics = &metrics;
    const AtpgResult r = run_atpg(n, opts);
    expect_byte_identical(reference, r);
    EXPECT_TRUE(r.parallel.workers.empty());
    EXPECT_EQ(r.parallel.dispatched, 0u);
    EXPECT_EQ(r.parallel.committed, 0u);
    EXPECT_EQ(r.parallel.wasted, 0u);
    EXPECT_EQ(r.parallel.max_in_flight, 0u);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_GT(snap.counters.at("atpg.sat.solves"), 0u);
    for (const auto& [name, value] : snap.counters)
      EXPECT_NE(name.rfind("parallel.", 0), 0u) << name;
    for (const auto& [name, value] : snap.gauges)
      EXPECT_NE(name.rfind("parallel.", 0), 0u) << name;
  }
}

TEST(ParallelAtpg, EscalationLadderStaysByteIdentical) {
  // The ladder runs on the pipeline thread in both engines; a tiny conflict
  // cap forces it to fire, and the retried/PODEM-rescued classifications —
  // including engine and attempt attribution — must still match serial
  // bit for bit at any thread count.
  const net::Network n = net::decompose(gen::array_multiplier(4));
  AtpgOptions base;
  base.random_blocks = 0;
  base.solver.max_conflicts = 1;
  const AtpgResult serial = run_atpg(n, base);
  EXPECT_GE(serial.num_escalated, 1u);
  for (std::size_t threads : {1u, 2u, 4u}) {
    AtpgOptions opts = base;
    opts.threads = threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_byte_identical(serial, run_atpg(n, opts));
  }
}

TEST(ParallelAtpg, HasTestAccessorAgreesWithStatus) {
  const net::Network n = gen::c17();
  AtpgOptions opts;
  opts.threads = 2;
  const AtpgResult r = run_atpg(n, opts);
  for (const FaultOutcome& o : r.outcomes) {
    if (o.status == FaultStatus::kDetected ||
        o.status == FaultStatus::kDroppedBySim) {
      ASSERT_TRUE(o.has_test());
      EXPECT_LT(o.test(), r.tests.size());
      EXPECT_TRUE(detects(n, o.fault, r.tests[o.test()]))
          << to_string(n, o.fault);
    } else {
      EXPECT_FALSE(o.has_test());
    }
  }
}

}  // namespace
}  // namespace cwatpg::fault
