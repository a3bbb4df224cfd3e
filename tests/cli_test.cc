#include "cli/cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "data/datasets.h"
#include "util/csv.h"

namespace multicast {
namespace cli {
namespace {

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the pid: ctest runs each test as its own process, and
    // concurrent tests must not share (and TearDown-delete) one feed file.
    path_ = testing::TempDir() + "/mc_cli_feed_" + std::to_string(getpid()) +
            ".csv";
    auto frame = data::MakeGasRate().ValueOrDie();
    ASSERT_TRUE(WriteCsvFile(frame.ToCsv(), path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Runs a CLI invocation and returns (exit code result, captured out).
  Result<int> Run(const std::vector<std::string>& args, std::string* out) {
    std::ostringstream stream;
    Result<int> code = RunCommand(args, stream);
    *out = stream.str();
    return code;
  }

  // Runs `forecast` with one extra flag (and its value, when non-empty)
  // and expects InvalidArgument whose message contains `needle`.
  void ExpectRejected(const std::string& flag, const std::string& value,
                      const std::string& needle) {
    std::vector<std::string> args = {"forecast", "--input", path_,
                                     "--horizon", "3", flag};
    if (!value.empty()) args.push_back(value);
    std::string out;
    Result<int> code = Run(args, &out);
    ASSERT_FALSE(code.ok()) << flag << " " << value;
    EXPECT_EQ(code.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(code.status().ToString().find(needle), std::string::npos)
        << code.status().ToString();
  }
  void ExpectRejected(const std::string& flag, const std::string& value) {
    ExpectRejected(flag, value, flag);
  }

  std::string path_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  std::string out;
  auto code = Run({"help"}, &out);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value(), 0);
  EXPECT_NE(out.find("forecast"), std::string::npos);
  EXPECT_NE(out.find("generate"), std::string::npos);
}

TEST_F(CliTest, EmptyArgsShowUsage) {
  std::string out;
  auto code = Run({}, &out);
  ASSERT_TRUE(code.ok());
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandErrors) {
  std::string out;
  EXPECT_FALSE(Run({"frobnicate"}, &out).ok());
}

TEST_F(CliTest, ForecastProducesCsvRows) {
  std::string out;
  auto code = Run({"forecast", "--input", path_, "--horizon", "6",
                   "--method", "VI", "--samples", "2"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("MultiCast (VI) forecast"), std::string::npos);
  EXPECT_NE(out.find("GasRate,CO2"), std::string::npos);
  // Header plus 6 data rows.
  auto csv_start = out.find("GasRate,CO2");
  std::string csv = out.substr(csv_start);
  EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 7);
}

TEST_F(CliTest, ForecastWithSaxAndOutputFile) {
  std::string out_path = testing::TempDir() + "/mc_cli_forecast_" +
                         std::to_string(getpid()) + ".csv";
  std::string out;
  auto code = Run({"forecast", "--input", path_, "--horizon", "12",
                   "--method", "DI", "--samples", "2", "--sax", "digit"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("tokens"), std::string::npos);

  code = Run({"forecast", "--input", path_, "--horizon", "4", "--method",
              "NAIVE", "--output", out_path},
             &out);
  ASSERT_TRUE(code.ok());
  auto written = ReadCsvFile(out_path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value().num_rows(), 4u);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, ForecastWithQuantiles) {
  std::string out;
  auto code = Run({"forecast", "--input", path_, "--horizon", "5",
                   "--method", "VI", "--samples", "4", "--quantiles",
                   "0.1,0.9"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("p10 band:"), std::string::npos);
  EXPECT_NE(out.find("p90 band:"), std::string::npos);
}

TEST_F(CliTest, QuantilesRejectedForClassicalMethods) {
  std::string out;
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--method", "ARIMA",
                    "--quantiles", "0.5"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--method", "VI",
                    "--quantiles", "abc"},
                   &out)
                   .ok());
}

TEST_F(CliTest, ForecastClassicalMethods) {
  for (const char* method : {"ARIMA", "SARIMA", "HW", "DRIFT"}) {
    std::string out;
    auto code = Run({"forecast", "--input", path_, "--horizon", "5",
                     "--method", method},
                    &out);
    ASSERT_TRUE(code.ok()) << method << ": " << code.status().ToString();
    EXPECT_NE(out.find("forecast, 5 steps"), std::string::npos) << method;
  }
}

TEST_F(CliTest, ForecastRejectsBadFlags) {
  std::string out;
  EXPECT_FALSE(Run({"forecast", "--horizon", "5"}, &out).ok());  // no input
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--method", "XX"}, &out)
                   .ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--horizon", "0"}, &out)
                   .ok());
  EXPECT_FALSE(
      Run({"forecast", "--input", path_, "--bogus", "1"}, &out).ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--sax", "nope"}, &out)
                   .ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--profile", "gpt9"},
                   &out)
                   .ok());
  // The retired CTW mixture back-end.
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--profile", "ctw"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--chaos", "nan"}, &out)
                   .ok());
  EXPECT_FALSE(Run({"forecast", "--input", path_, "--seed",
                    "99999999999999999999"},
                   &out)
                   .ok());
}

// Retired flags are unknown flags: a script that still passes one fails
// instead of silently running a different configuration.
TEST_F(CliTest, RetiredSpeculativeFlagsAreRejected) {
  ExpectRejected("--speculative", "", "unknown flag --speculative");
  ExpectRejected("--draft-k", "4", "unknown flag --draft-k");
}

// Every int-valued flag is range-checked as int64 before it is narrowed
// to int, so out-of-range values fail instead of wrapping.
using CliGeometryFlagTest = CliTest;

struct IntFlagCase {
  const char* flag;
  const char* value;
};

// Each value narrows to an in-range int (1; 2 for --sax-alphabet; 0 for
// --retries 2^32), so it would pass if the flag were narrowed before it
// was checked.
const IntFlagCase kWrappingIntFlags[] = {
    {"--samples", "4294967297"},
    {"--samples", "-4294967295"},
    {"--digits", "4294967297"},
    {"--digits", "-4294967295"},
    {"--sax-segment", "4294967297"},
    {"--sax-segment", "-4294967295"},
    {"--sax-alphabet", "4294967298"},
    {"--sax-alphabet", "-4294967294"},
    {"--retries", "4294967296"},
    {"--retries", "4294967297"},
    {"--retries", "-4294967295"},
    {"--redraws", "4294967297"},
    {"--redraws", "-4294967295"},
    {"--threads", "4294967297"},
    {"--threads", "-4294967295"},
    {"--prefix-cache-capacity", "4294967297"},
    {"--prefix-cache-capacity", "-4294967295"},
    {"--batch-size", "4294967297"},
    {"--batch-size", "-4294967295"},
};

TEST_F(CliTest, IntFlagsThatWouldWrapAreRejected) {
  for (const IntFlagCase& c : kWrappingIntFlags) {
    SCOPED_TRACE(std::string(c.flag) + " " + c.value);
    ExpectRejected(c.flag, c.value);
  }
}

TEST_F(CliGeometryFlagTest, BlockSpanBeyondIntIsRejected) {
  // Does not fit an int; narrowed, it would turn negative.
  ExpectRejected("--block-span", "3000000000");
}

TEST_F(CliGeometryFlagTest, BlockSpanThatWrapsToValidIsRejected) {
  // 2^32 + 32: narrowed, it would pass as a span of 32.
  ExpectRejected("--block-span", "4294967328");
}

TEST_F(CliGeometryFlagTest, BlockSpanBelowMinimumIsRejected) {
  // Below kMinBlockSpan, which the store would raise it to unasked.
  ExpectRejected("--block-span", "2");
}

TEST_F(CliGeometryFlagTest, PoolBlocksBeyondIntIsRejected) {
  // 2^32: narrowed, it would be 0, which means an unbounded pool.
  ExpectRejected("--pool-blocks", "4294967296");
}

TEST_F(CliGeometryFlagTest, BoundaryValuesAreAccepted) {
  for (const char* span : {"4", "65536"}) {
    std::string out;
    Result<int> code = Run({"forecast", "--input", path_, "--horizon", "3",
                            "--samples", "1", "--block-span", span,
                            "--pool-blocks", "2147483647"},
                           &out);
    ASSERT_TRUE(code.ok()) << span << ": " << code.status().ToString();
    EXPECT_EQ(code.value(), 0);
  }
}

TEST_F(CliTest, GenerateWritesDataset) {
  std::string out_path = testing::TempDir() + "/mc_cli_gen_" +
                         std::to_string(getpid()) + ".csv";
  std::string out;
  auto code = Run({"generate", "--dataset", "Electricity", "--output",
                   out_path},
                  &out);
  ASSERT_TRUE(code.ok());
  EXPECT_NE(out.find("3 x 242"), std::string::npos);
  auto written = ReadCsvFile(out_path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value().num_cols(), 3u);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, GenerateToStdout) {
  std::string out;
  auto code = Run({"generate", "--dataset", "GasRate"}, &out);
  ASSERT_TRUE(code.ok());
  EXPECT_NE(out.find("GasRate,CO2"), std::string::npos);
}

TEST_F(CliTest, GenerateUnknownDatasetErrors) {
  std::string out;
  EXPECT_FALSE(Run({"generate", "--dataset", "Traffic"}, &out).ok());
}

TEST_F(CliTest, AnomalyReportsThresholdAndLists) {
  std::string out;
  auto code = Run({"anomaly", "--input", path_, "--quantile", "0.95"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("threshold"), std::string::npos);
  EXPECT_NE(out.find("anomalies:"), std::string::npos);
  EXPECT_NE(out.find("change points:"), std::string::npos);
}

TEST_F(CliTest, ImputeFillsGaps) {
  // Write a feed with a NaN gap (CSV loader rejects non-numeric, so
  // build the frame and punch the gap via the CSV text "nan" is not
  // supported — instead run impute on a gapless file and verify the
  // no-op path, then a gapped frame through the library-level API is
  // covered in imputation_test).
  std::string out;
  auto code = Run({"impute", "--input", path_, "--samples", "2"}, &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("gaps: 0"), std::string::npos);
}

TEST_F(CliTest, NonFiniteCellPointsAtImpute) {
  std::string gappy = testing::TempDir() + "/mc_cli_gappy_" +
                      std::to_string(getpid()) + ".csv";
  std::ofstream(gappy) << "a,b\n1,2\n3,nan\n";
  std::string out;
  auto code = Run({"forecast", "--input", gappy, "--horizon", "4"}, &out);
  ASSERT_FALSE(code.ok());
  EXPECT_EQ(code.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(code.status().message().find("multicast impute"),
            std::string::npos);
  std::remove(gappy.c_str());
}

TEST_F(CliTest, ServeSimRendersSummaryTable) {
  std::string out;
  auto code = Run({"serve-sim", "--input", path_, "--horizon", "6",
                   "--method", "VI", "--samples", "2", "--requests", "10",
                   "--arrival-rate", "6", "--deadline", "1.5",
                   "--queue-capacity", "3", "--chaos", "0.2",
                   "--hedge-delay", "0.4"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("serve-sim: 10 requests"), std::string::npos);
  for (const char* column : {"Served", "Degraded", "Shed(full)",
                             "Shed(expired)", "Hedged", "p99(s)",
                             "Retries", "Preempted",
                             "Rej full/ddl/unav/cxl"}) {
    EXPECT_NE(out.find(column), std::string::npos) << column;
  }
  EXPECT_NE(out.find("VI"), std::string::npos);
  // Same flags, same virtual-time story: the run is deterministic.
  std::string again;
  ASSERT_TRUE(Run({"serve-sim", "--input", path_, "--horizon", "6",
                   "--method", "VI", "--samples", "2", "--requests", "10",
                   "--arrival-rate", "6", "--deadline", "1.5",
                   "--queue-capacity", "3", "--chaos", "0.2",
                   "--hedge-delay", "0.4"},
                  &again)
                  .ok());
  EXPECT_EQ(out, again);
}

TEST_F(CliTest, ServeSimDrainCancelStopsAdmission) {
  std::string out;
  auto code = Run({"serve-sim", "--input", path_, "--horizon", "4",
                   "--method", "LLMTIME", "--samples", "2", "--requests",
                   "12", "--arrival-rate", "4", "--drain", "1.0",
                   "--drain-mode", "cancel"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("drain at 1s (cancel)"), std::string::npos);
  EXPECT_NE(out.find("Drained"), std::string::npos);
}

TEST_F(CliTest, ClusterSimRendersFleetTableAndIsDeterministic) {
  std::vector<std::string> args = {
      "cluster-sim", "--input", path_, "--horizon", "4", "--method", "VI",
      "--samples", "2", "--requests", "12", "--arrival-rate", "4",
      "--deadline", "20", "--chaos", "0.15", "--replicas", "3",
      "--replica-chaos", "1.5", "--replica-chaos-seed", "99"};
  std::string out;
  auto code = Run(args, &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_EQ(code.value(), 0);
  EXPECT_NE(out.find("cluster-sim: 12 requests"), std::string::npos);
  EXPECT_NE(out.find("3 replicas"), std::string::npos);
  for (const char* marker :
       {"Served", "Failovers", "Redisp.draws", "Wasted(s)",
        "Rej full/ddl/unav/cxl", "health:", "replica 0:", "replica 1:",
        "replica 2:", "occupancy"}) {
    EXPECT_NE(out.find(marker), std::string::npos) << marker;
  }
  // One seeded chaos schedule, one exact story: byte-identical reruns.
  std::string again;
  ASSERT_TRUE(Run(args, &again).ok());
  EXPECT_EQ(out, again);
}

TEST_F(CliTest, ClusterSimRouterPoliciesAllRun) {
  for (const char* router : {"rr", "least", "p2c", "affinity"}) {
    std::string out;
    auto code = Run({"cluster-sim", "--input", path_, "--horizon", "4",
                     "--method", "VI", "--samples", "2", "--requests", "6",
                     "--replicas", "2", "--router", router},
                    &out);
    ASSERT_TRUE(code.ok()) << router << ": " << code.status().ToString();
    EXPECT_NE(out.find("router"), std::string::npos) << router;
  }
}

TEST_F(CliTest, ClusterSimRejectsBadFleetFlags) {
  std::string out;
  EXPECT_FALSE(Run({"cluster-sim", "--input", path_, "--replicas", "0"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"cluster-sim", "--input", path_, "--router", "bogus"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"cluster-sim", "--input", path_, "--replica-chaos",
                    "-1"},
                   &out)
                   .ok());
}

TEST_F(CliTest, ServeSimRejectsBadPolicyFlags) {
  std::string out;
  EXPECT_FALSE(Run({"serve-sim", "--input", path_, "--queue-order",
                    "random"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"serve-sim", "--input", path_, "--queue-capacity",
                    "0"},
                   &out)
                   .ok());
  EXPECT_FALSE(Run({"serve-sim", "--input", path_, "--drain-mode",
                    "explode"},
                   &out)
                   .ok());
}

TEST_F(CliTest, EvaluateRendersTable) {
  std::string out;
  auto code = Run({"evaluate", "--input", path_, "--horizon", "8",
                   "--folds", "2", "--samples", "2"},
                  &out);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(out.find("LLMTIME"), std::string::npos);
  EXPECT_NE(out.find("ARIMA"), std::string::npos);
  EXPECT_NE(out.find("+/-"), std::string::npos);
}

}  // namespace
}  // namespace cli
}  // namespace multicast
