// End-to-end differential self-test: the fuzzer finds nothing on the
// healthy engine, reliably catches an injected fault, replays its verdict
// deterministically, and the shrinker cuts the fault's repro to a sliver —
// the ISSUE's acceptance properties in unit-test form.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"

namespace remo::test {
namespace {

using fuzz::FuzzCase;
using fuzz::GenOptions;
using fuzz::RunResult;

// Small streams keep this suite fast; `remo fuzz --seeds 200` is the
// full-size sweep (CI runs it in the fuzz-smoke job).
GenOptions small_gen() {
  GenOptions g;
  g.num_vertices = 48;
  g.num_events = 160;
  return g;
}

TEST(Differential, MatrixSampleConverges) {
  // One window of 8 indexed cases: every algorithm twice, ranks 1 and 2.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const FuzzCase fc = fuzz::make_case_indexed(i, /*base_seed=*/2026, small_gen());
    const RunResult rr = fuzz::run_case(fc);
    EXPECT_TRUE(rr.ok()) << fuzz::describe(fc) << " diverged at "
                         << rr.divergences.size() << " vertices";
    EXPECT_GT(rr.vertices_checked, 0u);
  }
}

TEST(Differential, QueryObserverServesEveryAlgorithmExactly) {
  // Indices 0-5 cover the six algorithms. The observer serves each case
  // through ingest and repair, then diffs the view published at quiescence
  // against the oracle next to the live state.
  fuzz::RunOptions observe;
  observe.query_observer = true;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const FuzzCase fc = fuzz::make_case_indexed(i, /*base_seed=*/2026, small_gen());
    const RunResult rr = fuzz::run_case(fc, observe);
    EXPECT_TRUE(rr.divergences.empty()) << fuzz::describe(fc);
    EXPECT_TRUE(rr.served_divergences.empty())
        << fuzz::describe(fc) << ": " << rr.served_divergences.size()
        << " served answers differ from the oracle";
    EXPECT_GT(rr.vertices_checked, 0u);
  }
}

TEST(Differential, LiveCutsDuringDeletesLeaveDistancesExact) {
  // Versioned cuts taken while deletes and weight changes fly once left
  // live BFS/SSSP/weighted-SSSP distances wrong for good at 4-8 ranks: the
  // S_prev run of an old-epoch event re-pointed the live parent word, so
  // deleting the real parent edge marked nothing dirty. With that write
  // let through again (VertexContext::set_aux), these three full-size
  // windows found 2-5 divergent cases in each of 12 tries.
  for (const fuzz::Algo algo : {fuzz::Algo::kBfs, fuzz::Algo::kSssp, fuzz::Algo::kWsssp}) {
    fuzz::CampaignOptions opts;
    opts.base_seed = 20261018;
    opts.num_cases = 48;
    opts.force_algo = algo;
    opts.run.query_observer = true;
    const fuzz::CampaignResult res = fuzz::run_campaign(opts);
    EXPECT_EQ(res.cases_run, 48u);
    for (const FuzzCase& fc : res.failures) ADD_FAILURE() << fuzz::describe(fc);
  }
}

TEST(Differential, CampaignRunsAndReportsCleanly) {
  fuzz::CampaignOptions opts;
  opts.base_seed = 11;
  opts.num_cases = 6;
  opts.gen = small_gen();
  std::uint32_t observed = 0;
  opts.on_case = [&](const FuzzCase&, const RunResult&) {
    ++observed;
    return true;
  };
  const fuzz::CampaignResult res = fuzz::run_campaign(opts);
  EXPECT_EQ(res.cases_run, 6u);
  EXPECT_EQ(observed, 6u);
  EXPECT_TRUE(res.failures.empty());
}

TEST(Differential, CampaignEarlyExitStopsAfterTheCurrentCase) {
  fuzz::CampaignOptions opts;
  opts.num_cases = 10;
  opts.gen = small_gen();
  opts.on_case = [](const FuzzCase&, const RunResult&) { return false; };
  EXPECT_EQ(fuzz::run_campaign(opts).cases_run, 1u);
}

// An injected-fault case: every outbound kUpdate dropped, single rank so
// the run is exactly deterministic. State stops propagating past the
// immediate topology wave, so the converged BFS levels sit above the
// oracle's on any graph with a shortest-path tree deeper than the event
// order happens to build directly.
FuzzCase faulty_case() {
  GenOptions g;
  g.num_vertices = 32;
  g.num_events = 200;
  g.delete_permille = 0;
  FuzzCase fc = fuzz::make_case(424242, g);
  fc.config.algo = fuzz::Algo::kBfs;
  fc.config.ranks = 1;
  fc.config.streams = 1;
  fc.config.termination = TerminationMode::kCounting;
  fc.config.chaos_delay_us = 0;
  fc.config.drop_nth_update = 1;
  return fc;
}

TEST(Differential, InjectedFaultIsCaughtAndReplaysIdentically) {
  const FuzzCase fc = faulty_case();
  const RunResult first = fuzz::run_case(fc);
  ASSERT_FALSE(first.ok())
      << "dropping every update should starve BFS of propagation";
  // The acceptance bar: replaying the repro byte-for-byte reproduces the
  // identical converged-state diff.
  std::string text = fuzz::repro_to_text(fc);
  FuzzCase replayed;
  ASSERT_TRUE(fuzz::repro_from_text(text, replayed));
  const RunResult second = fuzz::run_case(replayed);
  EXPECT_EQ(second.divergences, first.divergences);
}

TEST(Differential, ShrinkerCutsTheInjectedFaultReproToASliver) {
  FuzzCase fc = faulty_case();
  ASSERT_FALSE(fuzz::run_case(fc).ok());

  fuzz::ShrinkStats stats;
  const auto shrunk = fuzz::shrink_events(
      fc.events,
      [&](const std::vector<EdgeEvent>& candidate) {
        FuzzCase probe = fc;
        probe.events = candidate;
        return !fuzz::run_case(probe).ok();
      },
      &stats, /*max_runs=*/400);

  // ISSUE acceptance: <= 10% of the original event count.
  EXPECT_LE(shrunk.size() * 10, fc.events.size())
      << "shrunk to " << shrunk.size() << " of " << fc.events.size();
  // And the shrunk case still reproduces.
  fc.events = shrunk;
  EXPECT_FALSE(fuzz::run_case(fc).ok());
}

TEST(Differential, RanksOneRunsAreBitwiseRepeatable) {
  // With one rank there is no schedule nondeterminism at all: the full
  // result struct — not just the verdict — must repeat.
  const FuzzCase fc = faulty_case();
  const RunResult a = fuzz::run_case(fc);
  const RunResult b = fuzz::run_case(fc);
  EXPECT_EQ(a.divergences, b.divergences);
  EXPECT_EQ(a.vertices_checked, b.vertices_checked);
  EXPECT_EQ(a.surviving_edges, b.surviving_edges);
}

}  // namespace
}  // namespace remo::test
