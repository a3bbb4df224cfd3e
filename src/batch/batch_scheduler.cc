#include "batch/batch_scheduler.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/strings.h"

namespace multicast {
namespace batch {

namespace {
size_t SaturatingSub(size_t a, size_t b) { return a > b ? a - b : 0; }
}  // namespace

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  steps += other.steps;
  slot_steps += other.slot_steps;
  submitted += other.submitted;
  admitted += other.admitted;
  retired += other.retired;
  backfills += other.backfills;
  preemptions += other.preemptions;
  peak_batch = std::max(peak_batch, other.peak_batch);
  if (occupancy.size() < other.occupancy.size()) {
    occupancy.resize(other.occupancy.size(), 0);
  }
  for (size_t k = 0; k < other.occupancy.size(); ++k) {
    occupancy[k] += other.occupancy[k];
  }
  return *this;
}

BatchStats BatchStats::operator-(const BatchStats& before) const {
  BatchStats delta;
  delta.steps = SaturatingSub(steps, before.steps);
  delta.slot_steps = SaturatingSub(slot_steps, before.slot_steps);
  delta.submitted = SaturatingSub(submitted, before.submitted);
  delta.admitted = SaturatingSub(admitted, before.admitted);
  delta.retired = SaturatingSub(retired, before.retired);
  delta.backfills = SaturatingSub(backfills, before.backfills);
  delta.preemptions = SaturatingSub(preemptions, before.preemptions);
  // Peak batch size is a high-water mark, not a counter; the delta keeps
  // the later snapshot's value.
  delta.peak_batch = peak_batch;
  delta.occupancy.resize(occupancy.size(), 0);
  for (size_t k = 0; k < occupancy.size(); ++k) {
    const size_t prior = k < before.occupancy.size() ? before.occupancy[k] : 0;
    delta.occupancy[k] = SaturatingSub(occupancy[k], prior);
  }
  return delta;
}

void PublishBatchStats(const BatchStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix) {
  registry->GetCounter(prefix + "steps")
      ->Add(static_cast<double>(stats.steps));
  registry->GetCounter(prefix + "slot_steps")
      ->Add(static_cast<double>(stats.slot_steps));
  registry->GetCounter(prefix + "submitted")
      ->Add(static_cast<double>(stats.submitted));
  registry->GetCounter(prefix + "admitted")
      ->Add(static_cast<double>(stats.admitted));
  registry->GetCounter(prefix + "retired")
      ->Add(static_cast<double>(stats.retired));
  registry->GetCounter(prefix + "backfills")
      ->Add(static_cast<double>(stats.backfills));
  registry->GetCounter(prefix + "preemptions")
      ->Add(static_cast<double>(stats.preemptions));
  registry->GetGauge(prefix + "peak_batch")
      ->SetMax(static_cast<double>(stats.peak_batch));
  util::Histogram* occupancy = registry->GetHistogram(prefix + "occupancy");
  for (size_t k = 0; k < stats.occupancy.size(); ++k) {
    occupancy->ObserveIndex(k, stats.occupancy[k]);
  }
}

BatchScheduler::BatchScheduler(const BatchPolicy& policy) : policy_(policy) {
  slots_.resize(std::max<size_t>(1, policy_.max_batch), nullptr);
}

std::unique_lock<std::mutex> BatchScheduler::Lock() const {
  std::unique_lock<std::mutex> lock(mu_);
  acquisitions_.fetch_add(1);
  return lock;
}

BatchTicket BatchScheduler::Submit(DecodeJobSpec spec) {
  CallerScope caller(&callers_);
  const std::unique_lock<std::mutex> lock = Lock();
  const uint64_t id = next_ticket_++;
  Job job;
  job.spec = std::move(spec);
  ++stats_.submitted;
  if (job.spec.lane.num_tokens() == 0) {
    // Nothing to decode: complete immediately without touching a slot,
    // mirroring the sequential decode loop's empty-generation case.
    job.done = true;
  } else {
    MC_CHECK(job.spec.rng != nullptr);
  }
  Job& stored = jobs_.emplace(id, std::move(job)).first->second;
  if (!stored.done) {
    waiting_.push(WaitKey{stored.spec.deadline_seconds, id, &stored});
  }
  return BatchTicket{id};
}

Status BatchScheduler::JobAlive(Job& job) const {
  if (job.spec.cancel.cancelled()) {
    return Status::Cancelled(StrFormat("decode preempted: %s",
                                       job.spec.cancel.reason().c_str()));
  }
  if (job.spec.clock != nullptr &&
      Deadline::At(job.spec.deadline_seconds)
          .ExpiredAt(job.spec.clock->now())) {
    return Status::DeadlineExceeded(
        StrFormat("decode preempted at %.3fs, past its deadline %.3fs",
                  job.spec.clock->now(), job.spec.deadline_seconds));
  }
  return Status::OK();
}

void BatchScheduler::FinishLocked(Job* job, Status status) {
  job->status = std::move(status);
  job->done = true;
}

bool BatchScheduler::StepLocked() {
  bool work = false;

  // Phase 1 — preemption: a session whose request died is evicted before
  // it can consume another decode step.
  size_t active_before = 0;
  for (Job*& slot : slots_) {
    if (slot == nullptr) continue;
    Status alive = JobAlive(*slot);
    if (!alive.ok()) {
      ++stats_.preemptions;
      FinishLocked(slot, std::move(alive));
      slot = nullptr;
      work = true;
      continue;
    }
    ++active_before;
  }

  // Phase 2 — admission: fill free slots from the waiting queue in EDF
  // order. Continuous back-fill joins a running batch; gang scheduling
  // only refills once the batch has fully drained. Jobs already dead at
  // admission are preempted without ever occupying a slot.
  if (active_before == 0 || policy_.backfill) {
    for (Job*& slot : slots_) {
      if (slot != nullptr || waiting_.empty()) continue;
      while (!waiting_.empty()) {
        const WaitKey key = waiting_.top();
        waiting_.pop();
        work = true;
        Status alive = JobAlive(*key.job);
        if (!alive.ok()) {
          ++stats_.preemptions;
          FinishLocked(key.job, std::move(alive));
          continue;
        }
        slot = key.job;
        ++stats_.admitted;
        if (active_before > 0) ++stats_.backfills;
        break;
      }
    }
  }

  // Phase 3 — decode: one token for every active session, the step-level
  // forward pass continuous batching amortizes. A lane on its forecast's
  // draw trie takes the step without model work; it is still a step.
  size_t active = 0;
  for (const Job* slot : slots_) {
    if (slot != nullptr) ++active;
  }
  if (active == 0) return work;

  ++stats_.steps;
  const size_t step_index = stats_.steps;
  stats_.slot_steps += active;
  stats_.peak_batch = std::max(stats_.peak_batch, active);
  if (stats_.occupancy.size() <= active) stats_.occupancy.resize(active + 1, 0);
  ++stats_.occupancy[active];
  if (policy_.on_step) policy_.on_step(active);

  for (Job*& slot : slots_) {
    if (slot == nullptr) continue;
    Job& job = *slot;
    if (job.admitted_step == 0) job.admitted_step = step_index;
    Result<token::TokenId> next = job.spec.lane.Next(job.spec.rng, &probs_);
    if (!next.ok()) {
      FinishLocked(&job, next.status());
      slot = nullptr;
      continue;
    }
    job.tokens.push_back(next.value());
    if (policy_.step_seconds > 0.0 && job.spec.clock != nullptr) {
      job.spec.clock->Advance(policy_.step_seconds);
    }
    if (job.tokens.size() == job.spec.lane.num_tokens()) {
      ++stats_.retired;
      job.retired_step = step_index;
      FinishLocked(&job, Status::OK());
      slot = nullptr;
    }
  }
  return true;
}

bool BatchScheduler::Step() {
  CallerScope caller(&callers_);
  const std::unique_lock<std::mutex> lock = Lock();
  return StepLocked();
}

Result<DecodeOutput> BatchScheduler::Await(BatchTicket ticket) {
  CallerScope caller(&callers_);
  std::unique_lock<std::mutex> lock = Lock();
  auto it = jobs_.find(ticket.id);
  if (it == jobs_.end()) {
    return Status::InvalidArgument(
        StrFormat("unknown batch ticket %llu",
                  static_cast<unsigned long long>(ticket.id)));
  }
  // The node stays put while other jobs are inserted or erased; only
  // this Await erases it.
  Job& job = it->second;
  while (!job.done) {
    // Cooperative driving: whoever is blocked makes the batch progress.
    // A pending job is always either active (it decodes) or waiting (it
    // is admittable once the policy allows), so every step makes
    // progress toward it.
    MC_CHECK(StepLocked());
    // Hand the lock off only when another caller is inside, so
    // concurrent submitters can join the batch and other awaiters can
    // take a driving turn. Alone, keep stepping: a yield per token is a
    // syscall per token. A plain unlock-yield-relock lets this thread
    // take the lock straight back ahead of a caller blocked on it, so
    // wait until another caller has had it, or none is left.
    if (job.done || callers_.load() <= 1) continue;
    const uint64_t held = acquisitions_.load();
    lock.unlock();
    while (acquisitions_.load() == held && callers_.load() > 1) {
      std::this_thread::yield();
    }
    lock = Lock();
  }
  Job finished = std::move(job);
  jobs_.erase(ticket.id);
  if (!finished.status.ok()) return finished.status;
  DecodeOutput out;
  out.tokens = std::move(finished.tokens);
  out.admitted_step = finished.admitted_step;
  out.retired_step = finished.retired_step;
  return out;
}

BatchStats BatchScheduler::stats() const {
  CallerScope caller(&callers_);
  const std::unique_lock<std::mutex> lock = Lock();
  return stats_;
}

}  // namespace batch
}  // namespace multicast
