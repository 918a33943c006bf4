// The soak engine end to end at CI-friendly scale: the in-process
// transport under faults and eviction churn, the wire transport under
// disconnects and fuzz, and the claim that the transport is the only
// thing that differs between the two.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/soak.h"

namespace abenc::net {
namespace {

TEST(SoakTest, SmokeRunIsBitIdenticalUnderFaults) {
  SoakOptions options;
  options.sessions = 48;
  options.length = 150;
  options.shards = 2;
  options.parallelism = 2;
  options.clients = 2;
  options.seed = 5;
  options.queue_capacity = 96;
  options.slowdown_watermark = 64;
  options.chunk = 32;
  const SoakOutcome outcome = RunSoak(options);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? "timed out"
                                    : outcome.failures.front());
  EXPECT_EQ(outcome.sessions, 48u);
  EXPECT_EQ(outcome.accesses, 48u * 150u);
}

TEST(SoakTest, EvictionChurnStaysBitIdentical) {
  SoakOptions options;
  options.sessions = 32;
  options.length = 200;
  options.shards = 2;
  options.parallelism = 2;
  options.clients = 2;
  options.seed = 8;
  options.idle_evict_steps = 2;
  options.access_budget = 70;
  const SoakOutcome outcome = RunSoak(options);
  EXPECT_TRUE(outcome.ok()) << (outcome.failures.empty()
                                    ? "timed out"
                                    : outcome.failures.front());
  EXPECT_GT(outcome.evicted_sessions, 0u);
}

// A miniature wire soak: a handful of concurrent clients with
// disconnects, faults and fuzz — the full harness at CI-friendly scale.
TEST(NetSoakTest, MiniatureSoakPassesBitIdentity) {
  SoakOptions options;
  options.endpoint = "tcp:127.0.0.1:0";
  options.sessions = 6;
  options.clients = 6;
  options.length = 96;
  options.disconnect_fraction = 0.5;
  options.fuzz_connections = 2;
  options.seed = 7;
  options.time_budget_s = 120.0;
  const SoakOutcome outcome = RunSoak(options);
  for (const std::string& failure : outcome.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_FALSE(outcome.timed_out);
  // 6 planned + the post-fuzz health check, which runs twice: once on
  // the current protocol version and once as a v1 legacy client.
  EXPECT_EQ(outcome.sessions, 8u);
  EXPECT_GE(outcome.old_version_sessions, 1u);
  EXPECT_GT(outcome.disconnects, 0u);
  EXPECT_EQ(outcome.disconnects, outcome.resumes);
  EXPECT_GT(outcome.fuzz_errors, 0u);
}

// One seed, two transports: with renegotiation, disconnects and fuzz
// off, every session's accounting is fixed by the plan alone, so the
// summed outcome must not depend on whether the sessions ran in-process
// or over a socket — including the columnar sessions, which go through
// SubmitColumns on one side and SUBMIT_STREAM on the other.
TEST(SoakTransportTest, InprocAndWireAgreeOnTheSameSeed) {
  SoakOptions options;
  options.sessions = 28;
  options.length = 240;
  options.clients = 4;
  options.seed = 13;
  options.columnar_fraction = 0.5;
  options.time_budget_s = 120.0;
  const SoakOutcome inproc = RunSoak(options);
  options.endpoint = "tcp:127.0.0.1:0";
  const SoakOutcome wire = RunSoak(options);
  for (const SoakOutcome* outcome : {&inproc, &wire}) {
    EXPECT_TRUE(outcome->ok()) << (outcome->failures.empty()
                                       ? "timed out"
                                       : outcome->failures.front());
  }
  EXPECT_EQ(inproc.sessions, 28u);
  EXPECT_EQ(wire.sessions, inproc.sessions);
  EXPECT_EQ(wire.accesses, inproc.accesses);
  EXPECT_EQ(wire.corrected_transfers, inproc.corrected_transfers);
  EXPECT_EQ(wire.recovered_transfers, inproc.recovered_transfers);
  EXPECT_EQ(wire.degraded_transfers, inproc.degraded_transfers);
  EXPECT_EQ(wire.degraded_sessions, inproc.degraded_sessions);
  EXPECT_EQ(wire.columnar_sessions, inproc.columnar_sessions);
  // The comparison has teeth only if the faults and both submission
  // paths actually ran.
  EXPECT_GT(inproc.corrected_transfers + inproc.recovered_transfers +
                inproc.degraded_transfers,
            0u);
  EXPECT_GT(inproc.columnar_sessions, 0u);
}

TEST(SoakTransportTest, WireOnlyOptionsAreUsageErrorsInProcess) {
  SoakOptions options;
  EXPECT_EQ(SoakUsageError(options), "");
  options.fuzz_connections = 1;
  EXPECT_NE(SoakUsageError(options), "");
  EXPECT_THROW(RunSoak(options), std::invalid_argument);
  options.fuzz_connections = 0;
  options.disconnect_fraction = 0.5;
  EXPECT_NE(SoakUsageError(options), "");
  options.endpoint = "tcp:127.0.0.1:0";
  EXPECT_EQ(SoakUsageError(options), "");
  options.endpoint = "carrier-pigeon";
  EXPECT_NE(SoakUsageError(options), "");
}

}  // namespace
}  // namespace abenc::net
