#include "serve/queue.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "util/strings.h"

namespace multicast {
namespace serve {

void PublishQueueStats(const QueueStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix) {
  registry->GetCounter(prefix + "offered")
      ->Add(static_cast<double>(stats.offered));
  registry->GetCounter(prefix + "admitted")
      ->Add(static_cast<double>(stats.admitted));
  registry->GetCounter(prefix + "rejected_full")
      ->Add(static_cast<double>(stats.rejected_full));
  registry->GetCounter(prefix + "rejected_closed")
      ->Add(static_cast<double>(stats.rejected_closed));
  registry->GetCounter(prefix + "dropped_expired")
      ->Add(static_cast<double>(stats.dropped_expired));
  registry->GetCounter(prefix + "popped")
      ->Add(static_cast<double>(stats.popped));
  registry->GetGauge(prefix + "max_depth")
      ->SetMax(static_cast<double>(stats.max_depth));
}

const char* QueueOrderName(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFifo:
      return "fifo";
    case QueueOrder::kEarliestDeadlineFirst:
      return "edf";
  }
  return "?";
}

bool AdmissionQueue::EdfAfter(const EdfEntry& a, const EdfEntry& b) {
  // std::push_heap keeps the *largest* element on top under this
  // comparator, so "a pops after b" yields a min-heap on (deadline, seq).
  return std::tie(a.deadline_seconds, a.seq) >
         std::tie(b.deadline_seconds, b.seq);
}

Status AdmissionQueue::Offer(const ForecastRequest& request) {
  ++stats_.offered;
  if (closed_) {
    ++stats_.rejected_closed;
    return Status::Unavailable(StrFormat(
        "request %zu rejected: queue closed (draining)", request.id));
  }
  if (depth() >= policy_.capacity) {
    ++stats_.rejected_full;
    return Status::ResourceExhausted(StrFormat(
        "request %zu shed: queue at capacity %zu; retry after %.3fs",
        request.id, policy_.capacity, RetryAfterSeconds()));
  }
  if (policy_.order == QueueOrder::kFifo) {
    fifo_.push_back(request);
  } else {
    heap_.push_back(
        EdfEntry{request.deadline_seconds, next_seq_++, request});
    std::push_heap(heap_.begin(), heap_.end(), EdfAfter);
  }
  ++stats_.admitted;
  if (depth() > stats_.max_depth) stats_.max_depth = depth();
  return Status::OK();
}

ForecastRequest AdmissionQueue::TakeNext() {
  if (policy_.order == QueueOrder::kFifo) {
    ForecastRequest next = std::move(fifo_.front());
    fifo_.pop_front();
    return next;
  }
  std::pop_heap(heap_.begin(), heap_.end(), EdfAfter);
  ForecastRequest next = std::move(heap_.back().request);
  heap_.pop_back();
  return next;
}

bool AdmissionQueue::Pop(double now, ForecastRequest* out,
                         std::vector<ForecastRequest>* expired) {
  while (!empty()) {
    ForecastRequest candidate = TakeNext();
    if (policy_.drop_expired_at_dequeue &&
        now > candidate.deadline_seconds) {
      ++stats_.dropped_expired;
      if (expired != nullptr) expired->push_back(candidate);
      continue;
    }
    ++stats_.popped;
    pop_times_.push_back(now);
    if (pop_times_.size() > 16) pop_times_.pop_front();
    *out = candidate;
    return true;
  }
  return false;
}

double AdmissionQueue::RetryAfterSeconds() const {
  if (pop_times_.size() < 2) return policy_.retry_after_default_seconds;
  // Mean inter-pop gap over the recent drain history: one pop frees one
  // slot, so a shed caller can expect room in about one gap. Pop times
  // are nondecreasing, so a zero span means every recent pop happened
  // at one virtual instant — the queue is draining as fast as it can —
  // and the honest hint is "retry immediately", not the default (which
  // told callers to wait longest exactly when the queue drained
  // fastest).
  const double span = pop_times_.back() - pop_times_.front();
  if (span <= 0.0) return 0.0;
  return span / static_cast<double>(pop_times_.size() - 1);
}

std::vector<ForecastRequest> AdmissionQueue::Flush() {
  std::vector<ForecastRequest> flushed;
  flushed.reserve(depth());
  if (policy_.order == QueueOrder::kFifo) {
    for (ForecastRequest& request : fifo_) {
      flushed.push_back(std::move(request));
    }
    fifo_.clear();
  } else {
    // The drain path reports waiting requests in arrival order, exactly
    // as the old arrival-ordered buffer did.
    std::sort(heap_.begin(), heap_.end(),
              [](const EdfEntry& a, const EdfEntry& b) {
                return a.seq < b.seq;
              });
    for (EdfEntry& entry : heap_) {
      flushed.push_back(std::move(entry.request));
    }
    heap_.clear();
  }
  return flushed;
}

}  // namespace serve
}  // namespace multicast
