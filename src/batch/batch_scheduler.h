// Step-level continuous batching for autoregressive decode.
//
// Every MultiCast request fans out into sample draws, and every draw is
// a token-by-token generation loop. Run to completion, each draw holds
// the decoder alone until it finishes — the serving pattern continuous
// batching replaced in real inference stacks: instead of one sequence
// per forward pass, the scheduler advances *all* active sessions one
// token per step and refills a slot the moment its session retires.
//
// `BatchScheduler` owns the step loop:
//
//   Submit   — enqueue a decode lane (lm::DecodeLane: a session with
//              its prompt already observed, grammar cycle hoisted, and
//              the draw trie of its forecast, if any) as a waiting job.
//   Step     — admit waiting jobs into free slots in EDF order (earliest
//              deadline first, submission order as the tie-break — the
//              same ordering contract as serve::AdmissionQueue), preempt
//              sessions whose request died (cancelled or past deadline),
//              then decode one token for every active session through
//              its lane's Next, the decode step SimulatedLlm runs too.
//   Await    — block until a job finishes. Await is cooperative: the
//              waiting caller drives Step() itself, so the scheduler
//              needs no dedicated driver thread. A caller alone in the
//              scheduler steps back to back under one lock hold; while
//              another caller is inside Submit/Await/Step/stats it hands
//              the lock off after each step, yielding until another
//              caller has taken it (or none is left) before it relocks,
//              so late submitters join the batch and other awaiters
//              take driving turns instead of the driver barging back.
//
// Determinism: a job's token sequence depends only on its own session,
// RNG and grammar cycle — never on batch composition, nor on whether its
// lane draws a step from its forecast's draw trie or computes it — so
// outputs are bit-identical to the run-to-completion path at any batch
// size and however many callers share the scheduler. A step a lane
// takes on the trie is still a scheduler step: it counts in BatchStats
// and charges step_seconds to the job's clock like any other, so only
// its model work disappears.
// Scheduling *statistics* (occupancy, back-fills) are deterministic
// whenever submission order is (single-threaded drivers, the serve
// executor); concurrent submitters may permute them.
//
// Back-fill policy: `backfill = true` is continuous batching (a freed
// slot is refilled at the next step boundary while the rest of the batch
// keeps decoding); `backfill = false` is gang scheduling (the batch
// refills only once every member has retired — the static-batching
// baseline the throughput bench compares against).

#ifndef MULTICAST_BATCH_BATCH_SCHEDULER_H_
#define MULTICAST_BATCH_BATCH_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "lm/generator.h"
#include "token/vocabulary.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/status.h"
#include "util/virtual_time.h"

namespace multicast {
namespace batch {

/// Scheduler configuration.
struct BatchPolicy {
  /// Maximum decode sessions advanced per step (slot count). 1 degrades
  /// to run-to-completion decode, one session at a time.
  size_t max_batch = 8;
  /// true: continuous back-fill (refill freed slots while the batch
  /// runs); false: gang scheduling (refill only when the batch drains).
  bool backfill = true;
  /// Virtual seconds charged to each active job's clock per decode step.
  /// 0 keeps virtual accounting identical to the sequential path (its
  /// latency model lives in the backend decorators, not here).
  double step_seconds = 0.0;
  /// Wall-clock cost hook, called once per step with the batch size that
  /// stepped. The throughput bench models a latency-bound forward pass
  /// here: one sleep per step, shared by every session in the batch.
  std::function<void(size_t active)> on_step;
};

/// Scheduler counters. Deltas around a request give its share.
struct BatchStats {
  size_t steps = 0;        ///< decode steps (forward passes) executed
  size_t slot_steps = 0;   ///< tokens decoded = sum of batch sizes over steps
  size_t submitted = 0;    ///< jobs handed to Submit()
  size_t admitted = 0;     ///< jobs that entered a slot
  size_t retired = 0;      ///< jobs that completed their token budget
  size_t backfills = 0;    ///< admissions that joined an already-running batch
  size_t preemptions = 0;  ///< jobs evicted dead (cancelled / past deadline)
  size_t peak_batch = 0;   ///< largest batch size observed in one step
  /// occupancy[k] = steps executed with exactly k active sessions.
  std::vector<size_t> occupancy;

  /// Mean sessions per step (slot utilization × max_batch).
  double mean_batch() const {
    return steps > 0 ? static_cast<double>(slot_steps) /
                           static_cast<double>(steps)
                     : 0.0;
  }

  BatchStats& operator+=(const BatchStats& other);
  /// Saturating per-field delta (`after - before`).
  BatchStats operator-(const BatchStats& before) const;
};

/// Registry export of BatchStats: counters under `prefix` (for example
/// "batch.steps"), peak_batch as a max-gauge, occupancy as an indexed
/// histogram named `prefix` + "occupancy".
void PublishBatchStats(const BatchStats& stats,
                       util::MetricsRegistry* registry,
                       const std::string& prefix);

/// One unit of decode work: a lane primed with its prompt plus what the
/// scheduler needs to run it. The rng (and clock/cancel, if set) stay
/// owned by the submitter but must not be touched between Submit() and
/// the matching Await() return — the scheduler has exclusive use of them,
/// as of the lane, while the job is live. The lane's draw trie is not
/// exclusive: other lanes, in this batch or elsewhere, may walk and grow
/// it meanwhile (lm::DrawTrie).
struct DecodeJobSpec {
  /// The generation: session (prompt already observed, fresh or
  /// PrefixCache fork), hoisted grammar, sampler and, for a forecast's
  /// draw, the forecast's draw trie (lm::OpenDecodeLane). A lane of 0
  /// tokens completes immediately with no output.
  lm::DecodeLane lane;
  /// Randomness for token selection; exclusive to this job while live.
  Rng* rng = nullptr;
  /// Absolute deadline on `clock`; +inf = none. A job past its deadline
  /// is preempted before its next decode step.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Clock the deadline is evaluated against (and step_seconds charged
  /// to). May be null: the job then never expires.
  VirtualClock* clock = nullptr;
  /// Cooperative cancellation; checked before every decode step.
  CancelToken cancel;
};

/// Handle for one submitted job.
struct BatchTicket {
  uint64_t id = 0;
};

/// Successful decode outcome.
struct DecodeOutput {
  std::vector<token::TokenId> tokens;
  /// 1-based index of the step this job first decoded in (0 if it never
  /// reached a slot, e.g. num_tokens == 0).
  size_t admitted_step = 0;
  /// 1-based index of the step this job finished in.
  size_t retired_step = 0;
};

class BatchScheduler {
 public:
  explicit BatchScheduler(const BatchPolicy& policy = BatchPolicy());

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues a job; never blocks. Thread-safe.
  BatchTicket Submit(DecodeJobSpec spec);

  /// Blocks until the job finishes, driving Step() cooperatively while
  /// waiting. Returns the decoded tokens, or kCancelled /
  /// kDeadlineExceeded if the job was preempted, or the sampler error
  /// that retired it. Each ticket may be awaited exactly once.
  Result<DecodeOutput> Await(BatchTicket ticket);

  /// One scheduler step under an external driver: preempt dead jobs,
  /// admit waiting jobs into free slots (EDF), decode one token for
  /// every active session. Returns false when there was nothing to do.
  bool Step();

  /// Snapshot of the counters. Thread-safe.
  BatchStats stats() const;

  /// Publishes the counters into `registry` under `prefix` (the unified
  /// metrics export path; see util/metrics.h). Thread-safe.
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "batch.") const {
    PublishBatchStats(stats(), registry, prefix);
  }

  const BatchPolicy& policy() const { return policy_; }

 private:
  struct Job {
    DecodeJobSpec spec;
    std::vector<token::TokenId> tokens;
    size_t admitted_step = 0;
    size_t retired_step = 0;
    Status status;      // error that retired the job; OK on success
    bool done = false;  // set once; the job stays mapped until Await
  };

  /// EDF ordering consistent with serve::AdmissionQueue: earliest
  /// deadline first, earliest submission breaking ties.
  struct WaitKey {
    double deadline_seconds;
    uint64_t ticket;
    Job* job;  // jobs_' node for `ticket`: unordered_map nodes are stable
    bool operator>(const WaitKey& other) const {
      if (deadline_seconds != other.deadline_seconds) {
        return deadline_seconds > other.deadline_seconds;
      }
      return ticket > other.ticket;
    }
  };

  /// Takes mu_ and counts the acquisition in `acquisitions_`.
  std::unique_lock<std::mutex> Lock() const;
  bool StepLocked();
  /// OK while the job should keep decoding; kCancelled or
  /// kDeadlineExceeded once its request died.
  Status JobAlive(Job& job) const;
  void FinishLocked(Job* job, Status status);

  /// Counts a public call for its lifetime, so that Await knows whether
  /// anyone else is waiting for the lock.
  class CallerScope {
   public:
    explicit CallerScope(std::atomic<int>* callers) : callers_(callers) {
      callers_->fetch_add(1);
    }
    ~CallerScope() { callers_->fetch_sub(1); }
    CallerScope(const CallerScope&) = delete;
    CallerScope& operator=(const CallerScope&) = delete;

   private:
    std::atomic<int>* callers_;
  };

  const BatchPolicy policy_;
  /// Threads inside Submit/Await/Step/stats, lock held or not.
  mutable std::atomic<int> callers_{0};
  mutable std::mutex mu_;
  /// Times mu_ was taken (Lock), so an Await that hands the lock off can
  /// tell when another caller has had it.
  mutable std::atomic<uint64_t> acquisitions_{0};
  uint64_t next_ticket_ = 1;                 // guarded by mu_
  std::unordered_map<uint64_t, Job> jobs_;   // guarded by mu_
  std::vector<Job*> slots_;                  // active jobs; guarded by mu_
  std::priority_queue<WaitKey, std::vector<WaitKey>, std::greater<WaitKey>>
      waiting_;                              // guarded by mu_
  BatchStats stats_;                         // guarded by mu_
  std::vector<double> probs_;                // step-shared buffer; guarded by mu_
};

}  // namespace batch
}  // namespace multicast

#endif  // MULTICAST_BATCH_BATCH_SCHEDULER_H_
