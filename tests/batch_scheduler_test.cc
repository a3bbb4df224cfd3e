// Tests of the continuous-batching decode scheduler, in three layers:
//
//  1. Scheduler mechanics — slot lifecycle, EDF admission, back-fill vs
//     gang refill, deadline/cancel preemption, stats accounting — driven
//     directly through Submit/Await with hand-built decode jobs.
//  2. The transparency contract: routing a pipeline's draws through a
//     shared BatchScheduler must produce the run-to-completion result
//     bit for bit, at every batch size, clean and under chaos, deadline
//     degradation and mid-flight cancellation included; and lanes that
//     share a batch decode what each decodes alone.
//  3. Serving integration: the executor's batched service mode serves
//     the same forecasts the sequential loop serves, and composes with
//     the shared-scheduler stats plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "batch/batch_llm.h"
#include "decode_reference.h"
#include "batch/batch_scheduler.h"
#include "forecast/llmtime_forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "lm/generator.h"
#include "lm/profiles.h"
#include "serve/executor.h"
#include "token/vocabulary.h"
#include "ts/frame.h"

namespace multicast {
namespace batch {
namespace {

// ---------------------------------------------------------------------
// Layer 1: scheduler mechanics with hand-built jobs.
// ---------------------------------------------------------------------

constexpr uint64_t kSeed = 0x5eed;

// A decode job over the digit vocabulary: fresh model, short fixed
// prompt, allow-all grammar. `rng` must outlive the job's Await.
DecodeJobSpec MakeJob(size_t num_tokens, Rng* rng) {
  const size_t vocab = token::Vocabulary::Digits().size();
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  lm::DecodeSession session;
  session.model = lm::NewDecoderModel(profile, vocab);
  for (token::TokenId t : {1, 2, 3}) session.model->Observe(t);
  session.cycle =
      lm::HoistGrammarCycle(lm::AllowAll(vocab), num_tokens, vocab)
          .ValueOrDie();
  DecodeJobSpec spec;
  spec.lane = lm::DecodeLane(std::move(session), num_tokens, profile.sampler);
  spec.rng = rng;
  return spec;
}

TEST(BatchSchedulerTest, LifecycleRetiresEveryJobAndCountsSteps) {
  BatchPolicy policy;
  policy.max_batch = 2;
  BatchScheduler scheduler(policy);
  Rng r1(kSeed, 1), r2(kSeed, 2), r3(kSeed, 3);
  BatchTicket t1 = scheduler.Submit(MakeJob(4, &r1));
  BatchTicket t2 = scheduler.Submit(MakeJob(6, &r2));
  BatchTicket t3 = scheduler.Submit(MakeJob(2, &r3));

  auto o1 = scheduler.Await(t1);
  auto o2 = scheduler.Await(t2);
  auto o3 = scheduler.Await(t3);
  ASSERT_TRUE(o1.ok()) << o1.status().ToString();
  ASSERT_TRUE(o2.ok()) << o2.status().ToString();
  ASSERT_TRUE(o3.ok()) << o3.status().ToString();
  EXPECT_EQ(o1.value().tokens.size(), 4u);
  EXPECT_EQ(o2.value().tokens.size(), 6u);
  EXPECT_EQ(o3.value().tokens.size(), 2u);

  BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.retired, 3u);
  EXPECT_EQ(stats.preemptions, 0u);
  // 12 tokens over 2 slots: at least 6 steps, and every token decoded
  // in exactly one slot-step.
  EXPECT_EQ(stats.slot_steps, 12u);
  EXPECT_GE(stats.steps, 6u);
  EXPECT_EQ(stats.peak_batch, 2u);
  EXPECT_GT(stats.mean_batch(), 1.0);
}

TEST(BatchSchedulerTest, TokensAreBatchSizeInvariant) {
  // The same jobs (same prompts, same RNG streams) must decode the same
  // token sequences whether they run alone or share a batch.
  auto decode_all = [](size_t max_batch) {
    BatchPolicy policy;
    policy.max_batch = max_batch;
    BatchScheduler scheduler(policy);
    std::vector<std::unique_ptr<Rng>> rngs;
    std::vector<BatchTicket> tickets;
    for (uint64_t i = 0; i < 5; ++i) {
      rngs.push_back(std::make_unique<Rng>(kSeed, i + 1));
      tickets.push_back(scheduler.Submit(MakeJob(8, rngs.back().get())));
    }
    std::vector<std::vector<token::TokenId>> out;
    for (BatchTicket t : tickets) {
      out.push_back(scheduler.Await(t).ValueOrDie().tokens);
    }
    return out;
  };
  auto solo = decode_all(1);
  for (size_t max_batch : {4, 16}) {
    EXPECT_EQ(solo, decode_all(max_batch)) << "max_batch=" << max_batch;
  }
}

TEST(BatchSchedulerTest, EdfAdmissionOrdersByDeadlineThenTicket) {
  BatchPolicy policy;
  policy.max_batch = 1;  // one slot: admission order == decode order
  BatchScheduler scheduler(policy);
  Rng r1(kSeed, 1), r2(kSeed, 2), r3(kSeed, 3), r4(kSeed, 4);
  DecodeJobSpec a = MakeJob(2, &r1);
  a.deadline_seconds = 3.0;
  DecodeJobSpec b = MakeJob(2, &r2);
  b.deadline_seconds = 1.0;
  DecodeJobSpec c = MakeJob(2, &r3);
  c.deadline_seconds = 2.0;
  DecodeJobSpec d = MakeJob(2, &r4);
  d.deadline_seconds = 2.0;  // ties break by submission order: after c
  BatchTicket ta = scheduler.Submit(std::move(a));
  BatchTicket tb = scheduler.Submit(std::move(b));
  BatchTicket tc = scheduler.Submit(std::move(c));
  BatchTicket td = scheduler.Submit(std::move(d));

  auto oa = scheduler.Await(ta).ValueOrDie();
  auto ob = scheduler.Await(tb).ValueOrDie();
  auto oc = scheduler.Await(tc).ValueOrDie();
  auto od = scheduler.Await(td).ValueOrDie();
  EXPECT_LT(ob.admitted_step, oc.admitted_step);
  EXPECT_LT(oc.admitted_step, od.admitted_step);
  EXPECT_LT(od.admitted_step, oa.admitted_step);
}

TEST(BatchSchedulerTest, BackfillRefillsMidBatchGangWaitsForDrain) {
  // Two slots, jobs of 1/1/6 tokens. With back-fill the long job joins
  // at step 2 while a short job still runs (a back-fill admission);
  // gang scheduling admits it only after the first batch fully drains.
  auto run = [](bool backfill) {
    BatchPolicy policy;
    policy.max_batch = 2;
    policy.backfill = backfill;
    BatchScheduler scheduler(policy);
    Rng r1(kSeed, 1), r2(kSeed, 2), r3(kSeed, 3);
    BatchTicket t1 = scheduler.Submit(MakeJob(1, &r1));
    BatchTicket t2 = scheduler.Submit(MakeJob(6, &r2));
    BatchTicket t3 = scheduler.Submit(MakeJob(1, &r3));
    scheduler.Await(t1).ValueOrDie();
    scheduler.Await(t2).ValueOrDie();
    DecodeOutput late = scheduler.Await(t3).ValueOrDie();
    BatchStats stats = scheduler.stats();
    return std::make_pair(late.admitted_step, stats.backfills);
  };
  auto [continuous_step, continuous_backfills] = run(true);
  // Step 1 decodes jobs 1+2; job 1 retires, job 3 back-fills into the
  // freed slot at step 2 alongside the still-running job 2.
  EXPECT_EQ(continuous_step, 2u);
  EXPECT_EQ(continuous_backfills, 1u);
  auto [gang_step, gang_backfills] = run(false);
  // Gang: job 3 waits for job 2's full 6 steps before a new batch forms.
  EXPECT_EQ(gang_step, 7u);
  EXPECT_EQ(gang_backfills, 0u);
}

TEST(BatchSchedulerTest, OverDeadlineJobIsPreemptedOthersUnaffected) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.step_seconds = 0.1;
  BatchScheduler scheduler(policy);
  VirtualClock clock;
  Rng r1(kSeed, 1), r2(kSeed, 2);
  DecodeJobSpec doomed = MakeJob(50, &r1);
  doomed.clock = &clock;
  doomed.deadline_seconds = 0.25;
  BatchTicket td = scheduler.Submit(std::move(doomed));
  BatchTicket th = scheduler.Submit(MakeJob(10, &r2));

  auto dead = scheduler.Await(td);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(dead.status().message().find("preempted"), std::string::npos);
  // The dead request provably stopped consuming decode steps: its clock
  // froze just past the deadline, far short of its 50-token budget.
  EXPECT_LT(clock.now(), 0.5);

  auto healthy = scheduler.Await(th);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value().tokens.size(), 10u);
  EXPECT_EQ(scheduler.stats().preemptions, 1u);
  EXPECT_EQ(scheduler.stats().retired, 1u);
}

TEST(BatchSchedulerTest, AutoCancelPreemptsMidDecode) {
  BatchPolicy policy;
  policy.max_batch = 1;
  policy.step_seconds = 0.1;
  BatchScheduler scheduler(policy);
  VirtualClock clock;
  Rng rng(kSeed);
  DecodeJobSpec spec = MakeJob(50, &rng);
  spec.clock = &clock;
  spec.cancel.CancelAtTime(&clock, 0.15, "drain");
  BatchTicket ticket = scheduler.Submit(std::move(spec));
  auto out = scheduler.Await(ticket);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  EXPECT_NE(out.status().message().find("drain"), std::string::npos);
  EXPECT_EQ(scheduler.stats().preemptions, 1u);
}

TEST(BatchSchedulerTest, CostHooksFireOncePerStepUnderDeadlinePreemption) {
  // The wall-clock hook and the virtual step charge are per-*step*
  // costs: a slot freed by deadline preemption before the decode phase
  // must drop out of the occupancy histogram, the hook's batch size and
  // the surviving jobs' clock charges for that step.
  std::vector<size_t> hook_calls;
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.step_seconds = 0.1;
  policy.on_step = [&hook_calls](size_t active) {
    hook_calls.push_back(active);
  };
  BatchScheduler scheduler(policy);
  VirtualClock doomed_clock, healthy_clock;
  Rng r1(kSeed, 1), r2(kSeed, 2);
  DecodeJobSpec doomed = MakeJob(50, &r1);
  doomed.clock = &doomed_clock;
  doomed.deadline_seconds = 0.25;
  DecodeJobSpec healthy = MakeJob(10, &r2);
  healthy.clock = &healthy_clock;
  BatchTicket td = scheduler.Submit(std::move(doomed));
  BatchTicket th = scheduler.Submit(std::move(healthy));
  EXPECT_FALSE(scheduler.Await(td).ok());
  ASSERT_TRUE(scheduler.Await(th).ok());

  BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.preemptions, 1u);
  // The hook fired exactly once per decode step, with the post-admission
  // batch size. The healthy job decoded one token in every step, so it
  // pins the step count — and was charged step_seconds exactly once per
  // step it decoded in.
  EXPECT_EQ(hook_calls.size(), stats.steps);
  EXPECT_EQ(stats.steps, 10u);
  EXPECT_DOUBLE_EQ(healthy_clock.now(), 0.1 * 10);
  // The doomed job stopped being charged the moment it was preempted.
  EXPECT_LT(doomed_clock.now(), 0.5);
  // The occupancy histogram is exactly the hook-call histogram: a slot
  // freed by preemption never counts as occupied in its eviction step.
  std::vector<size_t> from_hooks;
  size_t slot_steps = 0;
  for (size_t active : hook_calls) {
    if (from_hooks.size() <= active) from_hooks.resize(active + 1, 0);
    ++from_hooks[active];
    slot_steps += active;
  }
  EXPECT_EQ(stats.occupancy, from_hooks);
  EXPECT_EQ(stats.slot_steps, slot_steps);
  // With no third job to back-fill, the batch only shrinks: once the
  // doomed job is evicted no later step runs two sessions again.
  bool shrunk = false;
  for (size_t active : hook_calls) {
    if (active == 1) shrunk = true;
    if (shrunk) {
      EXPECT_EQ(active, 1u);
    }
  }
  EXPECT_TRUE(shrunk);
}

TEST(BatchSchedulerTest, CostHooksFireOncePerStepUnderCancelPreemption) {
  // Same per-step cost contract when the slot dies by cancellation
  // instead of deadline expiry.
  std::vector<size_t> hook_calls;
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.step_seconds = 0.1;
  policy.on_step = [&hook_calls](size_t active) {
    hook_calls.push_back(active);
  };
  BatchScheduler scheduler(policy);
  VirtualClock cancel_clock, healthy_clock;
  Rng r1(kSeed, 1), r2(kSeed, 2);
  DecodeJobSpec cancelled = MakeJob(50, &r1);
  cancelled.clock = &cancel_clock;
  cancelled.cancel.CancelAtTime(&cancel_clock, 0.15, "drain");
  DecodeJobSpec healthy = MakeJob(8, &r2);
  healthy.clock = &healthy_clock;
  BatchTicket tc = scheduler.Submit(std::move(cancelled));
  BatchTicket th = scheduler.Submit(std::move(healthy));
  auto dead = scheduler.Await(tc);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(scheduler.Await(th).ok());

  BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.preemptions, 1u);
  EXPECT_EQ(hook_calls.size(), stats.steps);
  EXPECT_EQ(stats.steps, 8u);
  EXPECT_DOUBLE_EQ(healthy_clock.now(), 0.1 * 8);
  std::vector<size_t> from_hooks;
  for (size_t active : hook_calls) {
    if (from_hooks.size() <= active) from_hooks.resize(active + 1, 0);
    ++from_hooks[active];
  }
  EXPECT_EQ(stats.occupancy, from_hooks);
}

TEST(BatchSchedulerTest, DeadOnArrivalJobNeverTakesASlot) {
  BatchScheduler scheduler;
  Rng rng(kSeed);
  DecodeJobSpec spec = MakeJob(5, &rng);
  spec.cancel.Cancel("shed before service");
  BatchTicket ticket = scheduler.Submit(std::move(spec));
  auto out = scheduler.Await(ticket);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.preemptions, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(BatchSchedulerTest, ZeroTokenJobCompletesWithoutDecoding) {
  BatchScheduler scheduler;
  DecodeJobSpec spec;  // a lane of 0 tokens needs no session or rng
  BatchTicket ticket = scheduler.Submit(std::move(spec));
  auto out = scheduler.Await(ticket);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().tokens.empty());
  EXPECT_EQ(out.value().admitted_step, 0u);
  EXPECT_EQ(scheduler.stats().steps, 0u);
}

TEST(BatchSchedulerTest, UnknownTicketIsAnError) {
  BatchScheduler scheduler;
  auto out = scheduler.Await(BatchTicket{42});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// A lone awaiter steps back to back without releasing the lock. A
// caller that arrives while it drives must still get in: its job joins
// the running batch, retires long before the lone driver's does, and
// both decode exactly what they decode alone.
TEST(BatchSchedulerTest, LateSubmitterJoinsALoneDriversBatch) {
  constexpr size_t kLongTokens = 20000;
  constexpr size_t kShortTokens = 16;
  auto decode_alone = [](size_t num_tokens, uint64_t stream) {
    BatchScheduler scheduler;
    Rng rng(kSeed, stream);
    return scheduler.Await(scheduler.Submit(MakeJob(num_tokens, &rng)))
        .ValueOrDie();
  };
  const DecodeOutput long_alone = decode_alone(kLongTokens, 1);
  const DecodeOutput short_alone = decode_alone(kShortTokens, 2);

  BatchScheduler scheduler;
  Rng long_rng(kSeed, 1);
  Rng short_rng(kSeed, 2);
  Result<DecodeOutput> long_out = Status::Internal("never awaited");
  std::thread driver([&] {
    const BatchTicket ticket =
        scheduler.Submit(MakeJob(kLongTokens, &long_rng));
    long_out = scheduler.Await(ticket);
  });
  while (scheduler.stats().steps == 0) std::this_thread::yield();
  const BatchTicket short_ticket =
      scheduler.Submit(MakeJob(kShortTokens, &short_rng));
  Result<DecodeOutput> short_out = scheduler.Await(short_ticket);
  driver.join();

  ASSERT_TRUE(long_out.ok()) << long_out.status().ToString();
  ASSERT_TRUE(short_out.ok()) << short_out.status().ToString();
  EXPECT_LT(short_out.value().admitted_step, long_out.value().retired_step);
  EXPECT_EQ(long_out.value().tokens, long_alone.tokens);
  EXPECT_EQ(short_out.value().tokens, short_alone.tokens);
}

// k submitters share one scheduler, each submitting and awaiting a run
// of jobs of its own while the others do the same, so callers hand the
// lock to each other after every step. Every job must decode exactly
// the tokens it decodes alone in a scheduler of its own, whichever
// callers drove its steps. (Run under TSan in CI.)
TEST(BatchSchedulerTest, ConcurrentSubmittersDecodeTheirRunAloneStreams) {
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 16;
  auto length = [](int s, int j) {
    return static_cast<size_t>(8 + 10 * ((s + 3 * j) % 7));
  };
  auto stream = [](int s, int j) {
    return static_cast<uint64_t>(100 + s * kJobsEach + j);
  };
  using Streams = std::vector<std::vector<std::vector<token::TokenId>>>;
  Streams alone(kSubmitters);
  size_t tokens = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    for (int j = 0; j < kJobsEach; ++j) {
      BatchScheduler solo;
      Rng rng(kSeed, stream(s, j));
      alone[s].push_back(
          solo.Await(solo.Submit(MakeJob(length(s, j), &rng)))
              .ValueOrDie()
              .tokens);
      tokens += length(s, j);
    }
  }

  BatchPolicy policy;
  policy.max_batch = kSubmitters;
  BatchScheduler scheduler(policy);
  Streams got(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        Rng rng(kSeed, stream(s, j));
        Result<DecodeOutput> out =
            scheduler.Await(scheduler.Submit(MakeJob(length(s, j), &rng)));
        got[s].push_back(out.ok() ? out.value().tokens
                                  : std::vector<token::TokenId>{});
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(got, alone);
  const BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.retired, static_cast<size_t>(kSubmitters * kJobsEach));
  EXPECT_EQ(stats.slot_steps, tokens);
}

// The plain step skips the model at grammar-forced positions, yet such
// a position still counts as a scheduler step and advances the job's
// clock. One job per sampler setting decodes in one shared batch; each
// must give the tokens of the loop that calls NextDistribution and
// SampleToken at every step, and leave its RNG at the same point.
TEST(BatchSchedulerTest, ForcedPositionsMatchTheUnskippedLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 70;
  const std::vector<ref::NamedSampler> samplers = ref::Samplers();
  for (const ref::NamedProfile& profile : ref::Profiles()) {
    for (const ref::NamedMask& mask : ref::ForcedMasks()) {
      SCOPED_TRACE(profile.name + " " + mask.name);
      BatchPolicy policy;
      policy.max_batch = 8;
      policy.step_seconds = 0.25;
      BatchScheduler scheduler(policy);
      std::vector<Rng> rngs;
      rngs.reserve(samplers.size());
      std::vector<VirtualClock> clocks(samplers.size());
      std::vector<BatchTicket> tickets;
      for (size_t i = 0; i < samplers.size(); ++i) {
        rngs.emplace_back(kSeed + i);
        lm::DecodeSession session;
        session.model = lm::NewDecoderModel(profile.profile, ref::kVocab);
        for (token::TokenId id : prompt) session.model->Observe(id);
        session.cycle =
            lm::HoistGrammarCycle(mask.mask, num_tokens, ref::kVocab)
                .ValueOrDie();
        DecodeJobSpec spec;
        spec.lane = lm::DecodeLane(std::move(session), num_tokens,
                                   samplers[i].options);
        spec.rng = &rngs[i];
        spec.clock = &clocks[i];
        tickets.push_back(scheduler.Submit(std::move(spec)));
      }
      for (size_t i = 0; i < samplers.size(); ++i) {
        SCOPED_TRACE(samplers[i].name);
        auto out = scheduler.Await(tickets[i]);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        lm::ModelProfile reference = profile.profile;
        reference.sampler = samplers[i].options;
        const ref::Decoded want = ref::ReferenceDecode(
            reference, ref::kVocab, prompt, num_tokens, mask.mask, kSeed + i);
        EXPECT_EQ(out.value().tokens, want.tokens);
        EXPECT_EQ(rngs[i].NextUint32(), want.rng_next);
        EXPECT_EQ(clocks[i].now(), 0.25 * static_cast<double>(num_tokens));
      }
      EXPECT_EQ(scheduler.stats().steps, num_tokens);
    }
  }
}

// A lane over the n-gram back-end for `num_tokens` tokens after
// `prompt`, walking and growing `trie` when it matches (null: none).
lm::DecodeLane OpenLane(const std::vector<token::TokenId>& prompt,
                        size_t num_tokens, const lm::GrammarMask& mask,
                        lm::DrawTrie* trie,
                        lm::PrefixCache* cache = nullptr) {
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  return lm::OpenDecodeLane(profile, decode_reference::kVocab,
                            lm::ModelFingerprint(profile,
                                                 decode_reference::kVocab),
                            cache, prompt, num_tokens, mask, trie)
      .ValueOrDie();
}

void ExpectSameStats(const BatchStats& want, const BatchStats& got) {
  EXPECT_EQ(want.steps, got.steps);
  EXPECT_EQ(want.slot_steps, got.slot_steps);
  EXPECT_EQ(want.submitted, got.submitted);
  EXPECT_EQ(want.admitted, got.admitted);
  EXPECT_EQ(want.retired, got.retired);
  EXPECT_EQ(want.backfills, got.backfills);
  EXPECT_EQ(want.preemptions, got.preemptions);
  EXPECT_EQ(want.peak_batch, got.peak_batch);
  EXPECT_EQ(want.occupancy, got.occupancy);
}

// One batch mixes lanes of two forecasts, each on its own draw trie
// (different prompts and grammars), with a lane on no trie. Rounds of
// submissions run one after another, so later rounds walk what earlier
// ones added, and the two lanes of a forecast in one round walk what
// each other adds. Every lane must give the tokens and next RNG output
// of the plain loop with its own seed, each trie must hold one node per
// prefix drawn, and the scheduler must count the same steps, occupancy
// and virtual time as for the same lanes on no trie.
TEST(BatchSchedulerTest, LanesOfTwoTriesAndNoneShareABatch) {
  namespace ref = decode_reference;
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  struct Forecast {
    std::vector<token::TokenId> prompt;
    lm::GrammarMask mask;
    size_t num_tokens;
  };
  const std::vector<ref::NamedMask> masks = ref::ForcedMasks();
  const std::vector<Forecast> forecasts = {
      {ref::DigitPrompt(60), masks[0].mask, 42},
      {ref::DigitPrompt(45), masks[1].mask, 30},
      {ref::DigitPrompt(50), masks[2].mask, 36},  // the no-trie lane
  };
  // Lanes per round: forecast 0, 0, 1, 1, 2.
  const std::vector<size_t> lane_forecast = {0, 0, 1, 1, 2};
  const int rounds = 4;
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    auto run = [&](bool tries, std::vector<size_t>* added) {
      auto cache = cached ? std::make_shared<lm::PrefixCache>(4) : nullptr;
      std::deque<lm::DrawTrie> trie;
      std::vector<std::vector<std::vector<token::TokenId>>> drawn(2);
      for (size_t f = 0; f < 2; ++f) {
        trie.emplace_back(profile, ref::kVocab,
                          ref::Shared(forecasts[f].prompt),
                          forecasts[f].num_tokens, forecasts[f].mask);
      }
      BatchPolicy policy;
      policy.max_batch = 8;
      policy.step_seconds = 0.5;
      BatchScheduler scheduler(policy);
      std::vector<VirtualClock> clocks(lane_forecast.size() * rounds);
      for (int r = 0; r < rounds; ++r) {
        const size_t before = trie[0].size() + trie[1].size();
        std::vector<Rng> rngs;
        std::vector<BatchTicket> tickets;
        for (size_t k = 0; k < lane_forecast.size(); ++k) {
          rngs.emplace_back(700 + r * 10 + k);
        }
        for (size_t k = 0; k < lane_forecast.size(); ++k) {
          const size_t f = lane_forecast[k];
          const Forecast& fc = forecasts[f];
          DecodeJobSpec spec;
          spec.lane = OpenLane(fc.prompt, fc.num_tokens, fc.mask,
                               tries && f < 2 ? &trie[f] : nullptr,
                               cache.get());
          spec.rng = &rngs[k];
          spec.clock = &clocks[r * lane_forecast.size() + k];
          tickets.push_back(scheduler.Submit(std::move(spec)));
        }
        for (size_t k = 0; k < lane_forecast.size(); ++k) {
          SCOPED_TRACE("round " + std::to_string(r) + " lane " +
                       std::to_string(k));
          const size_t f = lane_forecast[k];
          const Forecast& fc = forecasts[f];
          auto out = scheduler.Await(tickets[k]);
          EXPECT_TRUE(out.ok()) << out.status().ToString();
          if (!out.ok()) continue;
          const ref::Decoded want =
              ref::ReferenceDecode(profile, ref::kVocab, fc.prompt,
                                   fc.num_tokens, fc.mask, 700 + r * 10 + k);
          EXPECT_EQ(out.value().tokens, want.tokens);
          EXPECT_EQ(rngs[k].NextUint32(), want.rng_next);
          if (f < 2) drawn[f].push_back(want.tokens);
        }
        (*added)[r] = trie[0].size() + trie[1].size() - before;
      }
      for (size_t f = 0; f < 2; ++f) {
        EXPECT_EQ(trie[f].size(),
                  tries ? ref::ModelStepPrefixes(drawn[f], forecasts[f].mask)
                              .size()
                        : 0u);
      }
      std::vector<double> times;
      for (const VirtualClock& clock : clocks) times.push_back(clock.now());
      return std::make_pair(scheduler.stats(), times);
    };
    std::vector<size_t> added(rounds, 0);
    const auto plain = run(/*tries=*/false, &added);
    const auto shared = run(/*tries=*/true, &added);
    ExpectSameStats(plain.first, shared.first);
    EXPECT_EQ(plain.second, shared.second);
    // The later rounds walked the tries: the last round adds fewer
    // nodes than the first.
    EXPECT_LT(added[rounds - 1], added[0]);
  }
}

// A lane preempted while it still walks its forecast's trie (past its
// deadline, or cancelled) never ingests the tokens it kept back and adds
// no node, but the steps it drew from the trie still count: later lanes
// over the trie still decode the plain loop's tokens, and the trie holds
// one node per prefix drawn. The scheduler counts the same steps,
// preemptions and occupancy, and charges the same virtual time, as for
// the same submissions on no trie.
TEST(BatchSchedulerTest, LanePreemptedOnTheTrieLeavesItConsistent) {
  namespace ref = decode_reference;
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const lm::GrammarMask mask = ref::ForcedMasks()[0].mask;
  const size_t num_tokens = 42;
  for (bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancelled" : "past deadline");
    auto run = [&](bool tries) {
      lm::DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt),
                        num_tokens, mask);
      lm::DrawTrie* lane_trie = tries ? &trie : nullptr;
      // One full draw of seed 900: a lane of the same seed then walks the
      // trie from its first step to its last.
      lm::SimulatedLlm seeder(profile, ref::kVocab, nullptr, &trie);
      Rng seed_rng(900);
      EXPECT_TRUE(seeder.Complete(prompt, num_tokens, mask, &seed_rng).ok());
      std::vector<std::vector<token::TokenId>> drawn = {
          ref::ReferenceDecode(profile, ref::kVocab, prompt, num_tokens,
                               mask, 900)
              .tokens};

      BatchPolicy policy;
      policy.max_batch = 2;
      policy.step_seconds = 0.1;
      BatchScheduler scheduler(policy);
      VirtualClock doomed_clock, healthy_clock;
      Rng doomed_rng(900), healthy_rng(901);
      DecodeJobSpec doomed;
      doomed.lane = OpenLane(prompt, num_tokens, mask, lane_trie);
      doomed.rng = &doomed_rng;
      doomed.clock = &doomed_clock;
      if (cancel) {
        doomed.cancel.CancelAtTime(&doomed_clock, 2.05, "drain");
      } else {
        doomed.deadline_seconds = 2.05;
      }
      DecodeJobSpec healthy;
      healthy.lane = OpenLane(prompt, num_tokens, mask, lane_trie);
      healthy.rng = &healthy_rng;
      healthy.clock = &healthy_clock;
      const BatchTicket td = scheduler.Submit(std::move(doomed));
      const BatchTicket th = scheduler.Submit(std::move(healthy));
      auto dead = scheduler.Await(td);
      EXPECT_FALSE(dead.ok());
      EXPECT_EQ(dead.status().code(), cancel ? StatusCode::kCancelled
                                             : StatusCode::kDeadlineExceeded);
      // The healthy lane is still live, so every step counted so far is
      // the doomed lane's.
      EXPECT_EQ(trie.shared_steps() > 0, tries);
      auto out = scheduler.Await(th);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      if (out.ok()) {
        const ref::Decoded want = ref::ReferenceDecode(
            profile, ref::kVocab, prompt, num_tokens, mask, 901);
        EXPECT_EQ(out.value().tokens, want.tokens);
        EXPECT_EQ(healthy_rng.NextUint32(), want.rng_next);
        if (tries) drawn.push_back(want.tokens);
      }
      EXPECT_EQ(trie.size(), ref::ModelStepPrefixes(drawn, mask).size());
      // Later lanes, the doomed seed's among them, walk the trie as it
      // stands and still decode the plain loop.
      for (uint64_t seed : {900, 901, 902}) {
        Rng rng(seed);
        DecodeJobSpec spec;
        spec.lane = OpenLane(prompt, num_tokens, mask, lane_trie);
        spec.rng = &rng;
        auto again = scheduler.Await(scheduler.Submit(std::move(spec)));
        EXPECT_TRUE(again.ok());
        if (!again.ok()) continue;
        const ref::Decoded want = ref::ReferenceDecode(
            profile, ref::kVocab, prompt, num_tokens, mask, seed);
        EXPECT_EQ(again.value().tokens, want.tokens) << seed;
        EXPECT_EQ(rng.NextUint32(), want.rng_next) << seed;
        if (tries) drawn.push_back(want.tokens);
      }
      EXPECT_EQ(trie.size(), ref::ModelStepPrefixes(drawn, mask).size());
      return std::make_tuple(scheduler.stats(), doomed_clock.now(),
                             healthy_clock.now());
    };
    const auto plain = run(/*tries=*/false);
    const auto shared = run(/*tries=*/true);
    ExpectSameStats(std::get<0>(plain), std::get<0>(shared));
    EXPECT_EQ(std::get<0>(plain).preemptions, 1u);
    EXPECT_EQ(std::get<1>(plain), std::get<1>(shared));
    EXPECT_EQ(std::get<2>(plain), std::get<2>(shared));
  }
}

// k forecast-shaped lanes submitted before any Await share one batch:
// the first Await drives all of them to the end (one step per token, a
// peak batch of k), and each lane decodes the plain loop's tokens and
// leaves its RNG where the plain loop leaves it.
TEST(BatchSchedulerTest, KSubmitsThenOneAwaitShareOneBatch) {
  namespace ref = decode_reference;
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 42;
  constexpr size_t kLanes = 4;
  for (const ref::NamedMask& mask : ref::ForcedMasks()) {
    SCOPED_TRACE(mask.name);
    BatchPolicy policy;
    policy.max_batch = kLanes;
    BatchScheduler scheduler(policy);
    std::vector<Rng> rngs;
    for (size_t k = 0; k < kLanes; ++k) rngs.emplace_back(900 + k);
    std::vector<BatchTicket> tickets;
    for (size_t k = 0; k < kLanes; ++k) {
      DecodeJobSpec spec;
      spec.lane = OpenLane(prompt, num_tokens, mask.mask, nullptr);
      spec.rng = &rngs[k];
      tickets.push_back(scheduler.Submit(std::move(spec)));
    }
    std::vector<Result<DecodeOutput>> outs;
    outs.push_back(scheduler.Await(tickets[0]));
    const BatchStats stats = scheduler.stats();
    EXPECT_EQ(stats.steps, num_tokens);
    EXPECT_EQ(stats.peak_batch, kLanes);
    EXPECT_EQ(stats.retired, kLanes);
    for (size_t k = 1; k < kLanes; ++k) {
      outs.push_back(scheduler.Await(tickets[k]));
    }
    for (size_t k = 0; k < kLanes; ++k) {
      SCOPED_TRACE("lane " + std::to_string(k));
      ASSERT_TRUE(outs[k].ok()) << outs[k].status().ToString();
      const ref::Decoded want = ref::ReferenceDecode(
          profile, ref::kVocab, prompt, num_tokens, mask.mask, 900 + k);
      EXPECT_EQ(outs[k].value().tokens, want.tokens);
      EXPECT_EQ(rngs[k].NextUint32(), want.rng_next);
    }
  }
}

// k lanes of one forecast's trie are submitted before one Await, on a
// trie that holds only the first cycle of one draw: they decode in
// lockstep in one batch (peak batch k), and each looks up its next
// model step's node when it reaches it, so a lane draws from nodes the
// lanes before it in the batch added in the same step. Every lane must
// decode the plain loop, the trie must hold one node per prefix drawn,
// and the lanes must have drawn more shared steps than the nodes there
// before their round could serve.
TEST(BatchSchedulerTest, LanesOfOneTrieShareNodesWrittenMidBatch) {
  namespace ref = decode_reference;
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const lm::GrammarMask mask = ref::ForcedMasks()[0].mask;  // period 7
  const size_t num_tokens = 42;
  constexpr size_t kLanes = 6;
  const int rounds = 2;
  lm::DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), num_tokens,
                    mask);
  // A 7-token draw: one grammar cycle, so its hoisted grammar is the
  // trie's, and six model steps from the root.
  lm::SimulatedLlm seeder(profile, ref::kVocab, nullptr, &trie);
  Rng seed_rng(1);
  ASSERT_TRUE(seeder.Complete(prompt, 7, mask, &seed_rng).ok());
  ASSERT_EQ(trie.size(), 6u);
  std::vector<std::vector<token::TokenId>> drawn = {
      ref::ReferenceDecode(profile, ref::kVocab, prompt, 7, mask, 1).tokens};
  BatchPolicy policy;
  policy.max_batch = kLanes;
  BatchScheduler scheduler(policy);
  for (int r = 0; r < rounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const std::set<std::vector<token::TokenId>> held =
        ref::ModelStepPrefixes(drawn, mask);
    const size_t steps_before = trie.shared_steps();
    const BatchStats stats_before = scheduler.stats();
    std::vector<Rng> rngs;
    for (size_t k = 0; k < kLanes; ++k) rngs.emplace_back(300 + r * 10 + k);
    std::vector<BatchTicket> tickets;
    for (size_t k = 0; k < kLanes; ++k) {
      DecodeJobSpec spec;
      spec.lane = OpenLane(prompt, num_tokens, mask, &trie);
      spec.rng = &rngs[k];
      tickets.push_back(scheduler.Submit(std::move(spec)));
    }
    std::vector<Result<DecodeOutput>> outs;
    for (size_t k = 0; k < kLanes; ++k) {
      outs.push_back(scheduler.Await(tickets[k]));
    }
    const BatchStats stats = scheduler.stats() - stats_before;
    EXPECT_EQ(stats.steps, num_tokens);
    EXPECT_EQ(stats.peak_batch, kLanes);
    // The most steps the nodes held before the round could serve: each
    // lane's prefixes among them.
    size_t servable = 0;
    for (size_t k = 0; k < kLanes; ++k) {
      SCOPED_TRACE("lane " + std::to_string(k));
      ASSERT_TRUE(outs[k].ok()) << outs[k].status().ToString();
      const ref::Decoded want = ref::ReferenceDecode(
          profile, ref::kVocab, prompt, num_tokens, mask, 300 + r * 10 + k);
      EXPECT_EQ(outs[k].value().tokens, want.tokens);
      EXPECT_EQ(rngs[k].NextUint32(), want.rng_next);
      for (const auto& prefix : ref::ModelStepPrefixes({want.tokens}, mask)) {
        servable += held.count(prefix);
      }
      drawn.push_back(want.tokens);
    }
    EXPECT_EQ(trie.size(), ref::ModelStepPrefixes(drawn, mask).size());
    EXPECT_GT(trie.shared_steps() - steps_before, servable);
  }
}

// Four threads run waves of draws through BatchLlm over one trie, in one
// max_batch 8 scheduler, each lane walking and growing the trie as the
// scheduler steps it. Every draw must decode the plain loop, and the
// trie must hold one node per prefix drawn. (Run under TSan in CI.)
TEST(BatchSchedulerTest, ConcurrentTrieWavesMatchTheReferenceLoop) {
  namespace ref = decode_reference;
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 42;
  const int waves = 3;
  const int width = 4;
  for (const ref::NamedMask& mask : ref::ForcedMasks()) {
    SCOPED_TRACE(mask.name);
    BatchPolicy policy;
    policy.max_batch = 8;
    auto scheduler = std::make_shared<BatchScheduler>(policy);
    auto cache = std::make_shared<lm::PrefixCache>(2);
    lm::DrawTrie trie(profile, ref::kVocab, ref::Shared(prompt), num_tokens,
                      mask.mask);
    std::vector<std::vector<token::TokenId>> drawn;
    for (int w = 0; w < waves; ++w) {
      std::vector<Result<lm::GenerationResult>> got(
          width, Status::Internal("not run"));
      std::vector<uint32_t> rng_next(width);
      std::vector<std::thread> threads;
      for (int k = 0; k < width; ++k) {
        threads.emplace_back([&, k] {
          BatchLlm llm(profile, ref::kVocab, scheduler, cache, &trie);
          Rng rng(500 + static_cast<uint64_t>(w * width + k));
          got[k] = llm.Complete(prompt, num_tokens, mask.mask, &rng);
          rng_next[k] = rng.NextUint32();
        });
      }
      for (std::thread& t : threads) t.join();
      for (int k = 0; k < width; ++k) {
        const ref::Decoded want = ref::ReferenceDecode(
            profile, ref::kVocab, prompt, num_tokens, mask.mask,
            500 + static_cast<uint64_t>(w * width + k));
        ASSERT_TRUE(got[k].ok()) << got[k].status().ToString();
        EXPECT_EQ(got[k].value().tokens, want.tokens) << w << "/" << k;
        EXPECT_EQ(rng_next[k], want.rng_next) << w << "/" << k;
        drawn.push_back(want.tokens);
      }
    }
    EXPECT_EQ(trie.size(), ref::ModelStepPrefixes(drawn, mask.mask).size());
  }
}

TEST(BatchStatsTest, DeltaAndSumRoundTrip) {
  BatchStats before;
  before.steps = 10;
  before.slot_steps = 25;
  before.occupancy = {0, 5, 5};
  BatchStats after = before;
  after.steps = 14;
  after.slot_steps = 37;
  after.peak_batch = 3;
  after.occupancy = {0, 6, 7, 1};
  BatchStats delta = after - before;
  EXPECT_EQ(delta.steps, 4u);
  EXPECT_EQ(delta.slot_steps, 12u);
  EXPECT_EQ(delta.peak_batch, 3u);
  ASSERT_EQ(delta.occupancy.size(), 4u);
  EXPECT_EQ(delta.occupancy[1], 1u);
  EXPECT_EQ(delta.occupancy[2], 2u);
  EXPECT_EQ(delta.occupancy[3], 1u);
  BatchStats sum = before;
  sum += delta;
  EXPECT_EQ(sum.steps, after.steps);
  EXPECT_EQ(sum.slot_steps, after.slot_steps);
  EXPECT_EQ(sum.occupancy, after.occupancy);
}

// ---------------------------------------------------------------------
// Layer 2: pipeline transparency — batched decode must reproduce the
// run-to-completion forecast bit for bit.
// ---------------------------------------------------------------------

using forecast::ForecastResult;
using forecast::LlmTimeForecaster;
using forecast::LlmTimeOptions;
using forecast::MultiCastForecaster;
using forecast::MultiCastOptions;
using forecast::Quantization;

ts::Frame PeriodicFrame(size_t n) {
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    double phase = 2.0 * M_PI * static_cast<double>(i) / 12.0;
    a[i] = 10.0 + 5.0 * std::sin(phase);
    b[i] = 50.0 - 20.0 * std::sin(phase);
  }
  return ts::Frame::FromSeries({ts::Series(a, "a"), ts::Series(b, "b")},
                               "periodic")
      .ValueOrDie();
}

// Asserts every deterministic field of two ForecastResults matches
// exactly (wall-clock `seconds` excluded).
void ExpectIdentical(const ForecastResult& a, const ForecastResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.forecast.num_dims(), b.forecast.num_dims());
  for (size_t d = 0; d < a.forecast.num_dims(); ++d) {
    EXPECT_EQ(a.forecast.dim(d).values(), b.forecast.dim(d).values())
        << "dimension " << d;
  }
  ASSERT_EQ(a.quantile_bands.size(), b.quantile_bands.size());
  for (size_t i = 0; i < a.quantile_bands.size(); ++i) {
    EXPECT_EQ(a.quantile_bands[i].first, b.quantile_bands[i].first);
    for (size_t d = 0; d < a.quantile_bands[i].second.num_dims(); ++d) {
      EXPECT_EQ(a.quantile_bands[i].second.dim(d).values(),
                b.quantile_bands[i].second.dim(d).values())
          << "band " << i << " dimension " << d;
    }
  }
  EXPECT_EQ(a.ledger.prompt_tokens, b.ledger.prompt_tokens);
  EXPECT_EQ(a.ledger.generated_tokens, b.ledger.generated_tokens);
  EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.samples_requested, b.samples_requested);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.retry_stats.calls, b.retry_stats.calls);
  EXPECT_EQ(a.retry_stats.attempts, b.retry_stats.attempts);
  EXPECT_EQ(a.retry_stats.retries, b.retry_stats.retries);
  EXPECT_EQ(a.retry_stats.backoff_seconds, b.retry_stats.backoff_seconds);
}

std::shared_ptr<BatchScheduler> Scheduler(size_t max_batch) {
  BatchPolicy policy;
  policy.max_batch = max_batch;
  return std::make_shared<BatchScheduler>(policy);
}

struct VariantParam {
  multiplex::MuxKind mux;
  Quantization quantization;
};

class BatchIdentityTest : public testing::TestWithParam<VariantParam> {};

// The headline property: clean pipeline + quantile bands, batch sizes
// 1/4/16 — bit-identical to the unbatched run.
TEST_P(BatchIdentityTest, CleanPipelineIsBatchInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions opts;
  opts.mux = GetParam().mux;
  opts.quantization = GetParam().quantization;
  opts.num_samples = 6;
  opts.seed = 1234;
  opts.quantiles = {0.1, 0.9};

  auto reference = MultiCastForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t max_batch : {1, 4, 16}) {
    opts.batch_scheduler = Scheduler(max_batch);
    auto batched = MultiCastForecaster(opts).Forecast(frame, 12);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(reference.value(), batched.value(),
                    "batch=" + std::to_string(max_batch));
    // The scheduler actually decoded the draws.
    EXPECT_GT(opts.batch_scheduler->stats().retired, 0u);
  }
}

// Same property under chaos + retries: the fault schedule keys on draw
// index and the batch leaf reports the bare profile name, so retry
// accounting and salvage warnings survive the swap bit for bit.
TEST_P(BatchIdentityTest, ChaosPipelineIsBatchInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  MultiCastOptions opts;
  opts.mux = GetParam().mux;
  opts.quantization = GetParam().quantization;
  opts.num_samples = 5;
  opts.seed = 77;
  opts.faults = lm::FaultProfile::Chaos(0.2, 4242);
  opts.resilience.retries_enabled = true;

  auto reference = MultiCastForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t max_batch : {1, 4, 16}) {
    opts.batch_scheduler = Scheduler(max_batch);
    auto batched = MultiCastForecaster(opts).Forecast(frame, 12);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(reference.value(), batched.value(),
                    "batch=" + std::to_string(max_batch));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BatchIdentityTest,
    testing::Values(
        VariantParam{multiplex::MuxKind::kDigitInterleave,
                     Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueConcat, Quantization::kNone},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kSaxAlphabetic},
        VariantParam{multiplex::MuxKind::kValueInterleave,
                     Quantization::kSaxDigital}),
    [](const testing::TestParamInfo<VariantParam>& info) {
      std::string name = multiplex::MuxKindName(info.param.mux);
      switch (info.param.quantization) {
        case Quantization::kNone:
          return name + "Raw";
        case Quantization::kSaxAlphabetic:
          return name + "SaxAlpha";
        case Quantization::kSaxDigital:
          return name + "SaxDigit";
      }
      return name;
    });

// Deadline degradation with batched decode: the surviving-sample set
// must match the unbatched run exactly at every batch size (draw gating
// happens above the leaf; the batch adds no virtual time of its own).
TEST(BatchDegradationTest, DeadlineDegradationIsBatchInvariant) {
  ts::Frame frame = PeriodicFrame(48);
  auto run = [&](std::shared_ptr<BatchScheduler> scheduler,
                 double deadline) {
    MultiCastOptions opts;
    opts.num_samples = 8;
    opts.seed = 5;
    opts.batch_scheduler = std::move(scheduler);
    opts.faults = lm::FaultProfile::Chaos(0.1, 88);
    opts.resilience.retries_enabled = true;
    MultiCastForecaster forecaster(opts);
    VirtualClock clock;
    RequestContext ctx;
    ctx.clock = &clock;
    if (deadline > 0.0) ctx.deadline = Deadline::At(deadline);
    return forecaster.Forecast(frame, 6, ctx);
  };
  auto probe = run(nullptr, 0.0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const double deadline = probe.value().virtual_seconds * 0.5;
  ASSERT_GT(deadline, 0.0);
  auto reference = run(nullptr, deadline);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(reference.value().degraded);
  for (size_t max_batch : {1, 4, 16}) {
    auto batched = run(Scheduler(max_batch), deadline);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(reference.value(), batched.value(),
                    "batch=" + std::to_string(max_batch));
  }
}

// Mid-flight cancellation, same contract.
TEST(BatchDegradationTest, MidFlightCancelIsBatchInvariant) {
  ts::Frame frame = PeriodicFrame(48);
  auto run = [&](std::shared_ptr<BatchScheduler> scheduler,
                 double cancel_at) {
    MultiCastOptions opts;
    opts.num_samples = 8;
    opts.seed = 5;
    opts.batch_scheduler = std::move(scheduler);
    opts.faults = lm::FaultProfile::Chaos(0.1, 88);
    opts.resilience.retries_enabled = true;
    MultiCastForecaster forecaster(opts);
    VirtualClock clock;
    RequestContext ctx;
    ctx.clock = &clock;
    if (cancel_at > 0.0) ctx.cancel.CancelAtTime(&clock, cancel_at, "drain");
    return forecaster.Forecast(frame, 6, ctx);
  };
  auto probe = run(nullptr, 0.0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const double cancel_at = probe.value().virtual_seconds * 0.5;
  ASSERT_GT(cancel_at, 0.0);
  auto reference = run(nullptr, cancel_at);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(reference.value().degraded);
  for (size_t max_batch : {4, 16}) {
    auto batched = run(Scheduler(max_batch), cancel_at);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(reference.value(), batched.value(),
                    "batch=" + std::to_string(max_batch));
  }
}

// LLMTime shares one scheduler across its per-dimension pipelines.
TEST(BatchLlmTimeTest, SharedDimensionSchedulerIsOutputInvariant) {
  ts::Frame frame = PeriodicFrame(96);
  LlmTimeOptions opts;
  opts.num_samples = 4;
  opts.seed = 9;
  opts.faults = lm::FaultProfile::Chaos(0.15, 31);
  opts.resilience.retries_enabled = true;

  auto reference = LlmTimeForecaster(opts).Forecast(frame, 12);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t max_batch : {1, 8}) {
    opts.batch_scheduler = Scheduler(max_batch);
    auto batched = LlmTimeForecaster(opts).Forecast(frame, 12);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(reference.value(), batched.value(),
                    "batch=" + std::to_string(max_batch));
    EXPECT_GT(opts.batch_scheduler->stats().retired, 0u);
  }
}

// The batch leaf must report the same identity and the same prompt
// errors as the sequential leaf it replaces, so decorator-produced
// warning and error strings stay bit-identical.
TEST(BatchLlmTest, ErrorAndNameParityWithSimulatedLlm) {
  const size_t vocab = token::Vocabulary::Digits().size();
  const lm::ModelProfile profile = lm::ModelProfile::Llama2_7B();
  lm::SimulatedLlm sequential(profile, vocab);
  BatchLlm batched(profile, vocab, Scheduler(4));
  EXPECT_EQ(batched.name(), sequential.name());
  EXPECT_EQ(batched.vocab_size(), sequential.vocab_size());

  Rng rng(kSeed);
  lm::GrammarMask mask = lm::AllowAll(vocab);
  auto seq_empty = sequential.Complete({}, 4, mask, &rng);
  auto bat_empty = batched.Complete({}, 4, mask, &rng);
  ASSERT_FALSE(seq_empty.ok());
  ASSERT_FALSE(bat_empty.ok());
  EXPECT_EQ(bat_empty.status().code(), seq_empty.status().code());
  EXPECT_EQ(bat_empty.status().message(), seq_empty.status().message());

  const token::TokenId bad = static_cast<token::TokenId>(vocab + 7);
  auto seq_bad = sequential.Complete({bad}, 4, mask, &rng);
  auto bat_bad = batched.Complete({bad}, 4, mask, &rng);
  ASSERT_FALSE(seq_bad.ok());
  ASSERT_FALSE(bat_bad.ok());
  EXPECT_EQ(bat_bad.status().code(), seq_bad.status().code());
  EXPECT_EQ(bat_bad.status().message(), seq_bad.status().message());
}

// The batch leaf opens its session like the sequential leaf and decodes
// through the scheduler's plain step: same tokens, ledger and RNG
// position as the unskipped reference loop, with and without a cache.
TEST(BatchLlmTest, ForcedPositionsMatchTheUnskippedLoop) {
  namespace ref = decode_reference;
  const std::vector<token::TokenId> prompt = ref::DigitPrompt(60);
  const size_t num_tokens = 70;
  for (const ref::NamedProfile& base : ref::Profiles()) {
    for (const ref::NamedSampler& sampler : ref::Samplers()) {
      lm::ModelProfile profile = base.profile;
      profile.sampler = sampler.options;
      for (const ref::NamedMask& mask : ref::ForcedMasks()) {
        for (bool cached : {false, true}) {
          SCOPED_TRACE(base.name + " " + sampler.name + " " + mask.name +
                       (cached ? " cached" : " uncached"));
          const ref::Decoded want = ref::ReferenceDecode(
              profile, ref::kVocab, prompt, num_tokens, mask.mask, kSeed);
          BatchLlm llm(profile, ref::kVocab, Scheduler(4),
                       cached ? std::make_shared<lm::PrefixCache>(2)
                              : nullptr);
          Rng rng(kSeed);
          auto got = llm.Complete(prompt, num_tokens, mask.mask, &rng);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value().tokens, want.tokens);
          EXPECT_EQ(got.value().ledger.prompt_tokens, prompt.size());
          EXPECT_EQ(got.value().ledger.generated_tokens, num_tokens);
          EXPECT_EQ(rng.NextUint32(), want.rng_next);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Layer 3: the serving executor's batched service mode.
// ---------------------------------------------------------------------

TEST(BatchServeTest, BatchedRunServesTheSequentialForecasts) {
  ts::Frame frame = PeriodicFrame(64);
  auto make_requests = [&]() {
    std::vector<serve::ForecastRequest> reqs;
    for (size_t i = 0; i < 8; ++i) {
      serve::ForecastRequest r;
      r.id = i;
      r.arrival_seconds = 0.25 * static_cast<double>(i);
      r.deadline_seconds = r.arrival_seconds + 60.0;
      r.history = &frame;
      r.horizon = 6;
      reqs.push_back(r);
    }
    return reqs;
  };
  auto run = [&](bool batched) {
    std::shared_ptr<BatchScheduler> scheduler;
    if (batched) scheduler = Scheduler(4);
    serve::ServeOptions options;
    options.queue.capacity = 16;
    options.batch.enabled = batched;
    options.batch.size = 4;
    options.batch.scheduler = scheduler;
    serve::ForecasterFactory factory =
        [scheduler](const serve::ForecastRequest& req) {
          MultiCastOptions opts;
          opts.num_samples = 3;
          opts.seed = 42 + req.id;
          opts.batch_scheduler = scheduler;
          return std::make_unique<MultiCastForecaster>(opts);
        };
    serve::ServeExecutor executor(factory, serve::ForecasterFactory(),
                                  options);
    return executor.Run(make_requests()).ValueOrDie();
  };
  std::vector<serve::ServeStats> sequential = run(false);
  std::vector<serve::ServeStats> batched = run(true);
  ASSERT_EQ(sequential.size(), batched.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(sequential[i].outcome, batched[i].outcome);
    ASSERT_NE(sequential[i].result, nullptr);
    ASSERT_NE(batched[i].result, nullptr);
    const ts::Frame& a = sequential[i].result->forecast;
    const ts::Frame& b = batched[i].result->forecast;
    ASSERT_EQ(a.num_dims(), b.num_dims());
    for (size_t d = 0; d < a.num_dims(); ++d) {
      EXPECT_EQ(a.dim(d).values(), b.dim(d).values());
    }
  }
  // The batched run attributed scheduler activity to its requests.
  serve::ServeSummary summary = serve::Summarize(batched);
  EXPECT_GT(summary.batch.retired, 0u);
  EXPECT_GT(summary.batch.steps, 0u);
}

TEST(BatchServeTest, BatchedModeRejectsHedging) {
  serve::ServeOptions options;
  options.batch.enabled = true;
  options.hedge.enabled = true;
  serve::ForecasterFactory factory = [](const serve::ForecastRequest&) {
    return std::make_unique<MultiCastForecaster>(MultiCastOptions());
  };
  serve::ServeExecutor executor(factory, factory, options);
  auto result = executor.Run({});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace batch
}  // namespace multicast
