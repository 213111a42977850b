// Bounded, prioritized job queue with admission control.
//
// Admission is the service's overload story: the queue has a hard
// capacity, push() on a full queue fails immediately, and the server turns
// that failure into an `overloaded` error response — the client learns to
// back off *now* instead of watching its request age in an unbounded
// backlog (deadlines would expire in the queue and every rejection would
// masquerade as a timeout).
//
// Ordering: higher `priority` first; FIFO (admission order) within a
// priority level. The queue is small by construction (capacity is tens,
// not millions), so selection is a linear scan — simpler than a heap and
// trivially stable.
//
// Every job carries its own util::Budget, armed from the request deadline
// AT ADMISSION: time spent queued counts against the deadline, which is
// what a caller-facing latency bound means. The budget shared_ptr is also
// the cancellation handle — the server fires it for in-flight cancels.
//
// Thread-safe: fully (mutex + condition variable). One server owns one
// queue; producers are the reader loop, consumers the server's job
// threads, each popping only when it is free to run the job.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/json.hpp"
#include "svc/proto.hpp"
#include "svc/registry.hpp"
#include "util/budget.hpp"

namespace cwatpg::svc {

/// One admitted unit of work (a run_atpg or fsim request). Jobs are
/// identified by the client's request id — the protocol requires ids to be
/// unique among a client's live requests, which makes the id double as the
/// cancel handle with no extra round trip.
struct Job {
  std::uint64_t request_id = 0;  ///< client's correlation id == job handle
  /// Owning session (connection). Ids are client-chosen, so two sessions
  /// may legitimately use the same id; (session, request_id) is the true
  /// job key everywhere the server tracks work.
  std::uint64_t session = 0;
  RequestKind kind = RequestKind::kRunAtpg;
  int priority = 0;  ///< higher runs first; same level is FIFO
  /// Owns the job's deadline and cancellation token. Never null for an
  /// admitted job; shared with the server's in-flight table so cancel()
  /// reaches a job already running on a job thread.
  std::shared_ptr<Budget> budget;
  /// The resolved circuit. Holding the shared_ptr pins the entry for the
  /// job's lifetime even if the registry evicts it meanwhile.
  std::shared_ptr<const CircuitEntry> circuit;
  obs::Json params;  ///< validated request params (kind-specific)
};

struct QueueStats {
  std::size_t depth = 0;          ///< jobs currently queued
  std::size_t capacity = 0;
  std::uint64_t admitted = 0;     ///< successful push() calls
  std::uint64_t rejected = 0;     ///< push() refused: full or closed
  std::uint64_t removed = 0;      ///< cancelled while still queued
  std::uint64_t max_depth = 0;    ///< high-water mark

  obs::Json to_json() const;
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  /// Admits `job` unless the queue is at capacity or closed; returns
  /// whether it was admitted.
  bool push(Job job);

  /// Blocks for the highest-priority job. Returns false once the queue is
  /// closed AND drained — a job thread's termination condition.
  bool pop(Job& out);

  /// Removes a still-queued job (cancellation path), matched by its full
  /// (session, request id) key. Returns the job when it was found; nullopt
  /// means it already left the queue (running or done) or never existed.
  std::optional<Job> remove(std::uint64_t session, std::uint64_t request_id);

  /// Closes admission and wakes the consumers. Queued jobs remain poppable
  /// — the shutdown path pops them to send their terminal responses.
  void close();

  std::size_t depth() const;
  QueueStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t capacity_;
  bool closed_ = false;
  std::uint64_t next_seq_ = 0;
  struct Entry {
    Job job;
    std::uint64_t seq;  ///< admission order, the FIFO tiebreak
  };
  std::deque<Entry> entries_;
  QueueStats counters_;  ///< admitted/rejected/removed/max_depth only
};

}  // namespace cwatpg::svc
