// Bounded admission queue with load shedding.
//
// The first thing an overloaded server must do is say no *cheaply*:
// rejecting at admission costs nothing, while timing out after queueing
// burns queue slots and client patience. AdmissionQueue is that front
// door — a bounded buffer that rejects when full (kResourceExhausted),
// optionally drops requests whose deadline already passed at dequeue
// time (they would be served dead), and orders waiting work either
// FIFO or earliest-deadline-first.

#ifndef MULTICAST_SERVE_QUEUE_H_
#define MULTICAST_SERVE_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/request.h"
#include "util/metrics.h"
#include "util/status.h"

namespace multicast {
namespace serve {

enum class QueueOrder {
  kFifo,                   ///< serve in arrival order
  kEarliestDeadlineFirst,  ///< serve the most urgent request first
};

const char* QueueOrderName(QueueOrder order);

struct QueuePolicy {
  /// Maximum requests waiting; offers beyond this are shed.
  size_t capacity = 8;
  QueueOrder order = QueueOrder::kFifo;
  /// Drop requests whose deadline has passed while they waited instead
  /// of handing them to a worker that cannot serve them in time.
  bool drop_expired_at_dequeue = true;
  /// Retry-after hint attached to queue-full rejections before the
  /// queue has drained enough to measure its own rate (< 2 pops).
  double retry_after_default_seconds = 1.0;
};

/// Monotonic counters of everything that crossed the front door.
struct QueueStats {
  size_t offered = 0;          ///< every Offer() call
  size_t admitted = 0;         ///< accepted into the buffer
  size_t rejected_full = 0;    ///< shed: queue at capacity
  size_t rejected_closed = 0;  ///< shed: queue closed (draining)
  size_t dropped_expired = 0;  ///< dropped at dequeue: deadline passed
  size_t popped = 0;           ///< handed to a worker
  size_t max_depth = 0;        ///< high-water mark of the buffer
};

/// Registry export of QueueStats: counters under `prefix` (for example
/// "queue.offered"), max_depth as a max-gauge.
void PublishQueueStats(const QueueStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix);

/// See file comment. Deterministic and single-threaded, like the rest
/// of the serving simulation. Pops are O(1) under FIFO (a deque) and
/// O(log n) under EDF (a binary heap keyed on (deadline, push order)),
/// so drains stay O(n log n) under load instead of the O(n^2) a linear
/// scan plus mid-vector erase would cost.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const QueuePolicy& policy) : policy_(policy) {}

  /// Admits `request` or rejects it: kResourceExhausted when the buffer
  /// is at capacity, kUnavailable once the queue is closed for drain.
  Status Offer(const ForecastRequest& request);

  /// Pops the next request per the configured order at virtual time
  /// `now`. Under drop_expired_at_dequeue, requests already past their
  /// deadline are moved to `expired` (never returned). Returns false
  /// when nothing poppable remains; `out` is untouched then.
  bool Pop(double now, ForecastRequest* out,
           std::vector<ForecastRequest>* expired);

  /// Empties the buffer and returns everything that was waiting — the
  /// cancel-queued drain path.
  std::vector<ForecastRequest> Flush();

  /// Retry-after hint for shed work: the queue's mean inter-pop gap
  /// over its recent drain history — roughly when the next slot frees.
  /// Attached to kResourceExhausted rejection messages and surfaced in
  /// ServeStats so clients can back off for a grounded interval
  /// instead of guessing. Falls back to
  /// `policy.retry_after_default_seconds` before two pops happened.
  double RetryAfterSeconds() const;

  /// Stops admitting; waiting requests are unaffected. Idempotent.
  void Close() { closed_ = true; }
  bool closed() const { return closed_; }

  size_t depth() const { return fifo_.size() + heap_.size(); }
  bool empty() const { return depth() == 0; }
  const QueuePolicy& policy() const { return policy_; }
  const QueueStats& stats() const { return stats_; }
  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h).
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "queue.") const {
    PublishQueueStats(stats_, registry, prefix);
  }

 private:
  /// One waiting request in the EDF heap. `seq` is the admission order
  /// and breaks deadline ties — the earliest-pushed of equal deadlines
  /// pops first, matching the documented FIFO tie-break of the old
  /// linear scan.
  struct EdfEntry {
    double deadline_seconds = 0.0;
    uint64_t seq = 0;
    ForecastRequest request;
  };
  /// Min-heap order on (deadline, seq) for std::push_heap/pop_heap.
  static bool EdfAfter(const EdfEntry& a, const EdfEntry& b);

  /// Removes and returns the next request per the configured order.
  /// Callers must check !empty() first.
  ForecastRequest TakeNext();

  QueuePolicy policy_;
  QueueStats stats_;
  std::deque<ForecastRequest> fifo_;  ///< arrival order (FIFO mode)
  std::vector<EdfEntry> heap_;        ///< (deadline, seq) heap (EDF mode)
  uint64_t next_seq_ = 0;
  bool closed_ = false;
  /// Recent pop instants (bounded), the drain-rate sample behind
  /// RetryAfterSeconds().
  std::deque<double> pop_times_;
};

}  // namespace serve
}  // namespace multicast

#endif  // MULTICAST_SERVE_QUEUE_H_
