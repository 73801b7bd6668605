// Tests for the fpopt command-line tool (driven through run_cli).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/cli.h"
#include "telemetry/json.h"
#include "telemetry/schema.h"

namespace fpopt {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_path_ = unique_path("cli_test.topo");
    lib_path_ = unique_path("cli_test.lib");
    write(topo_path_, "(W a b c d (V e f))");
    write(lib_path_,
          "a 5x3 4x4 3x6\nb 4x5 3x7\nc 2x2 3x1\nd 4x4 5x3\ne 3x3\nf 3x4 4x3\n");
  }

  /// Per-test file name: ctest runs the discovered tests as concurrent
  /// processes, so shared fixture files would race.
  static std::string unique_path(const std::string& name) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + info->name() + "_" + name;
  }

  static void write(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::string topo_path_;
  std::string lib_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, StatsReportsStructure) {
  ASSERT_EQ(run({"stats", topo_path_, lib_path_}), 0) << err_.str();
  const std::string s = out_.str();
  EXPECT_NE(s.find("modules:      6"), std::string::npos) << s;
  EXPECT_NE(s.find("wheel nodes:  1"), std::string::npos);
  EXPECT_NE(s.find("slice nodes:  1"), std::string::npos);
}

TEST_F(CliTest, OptimizeExactPrintsCurveAndStats) {
  ASSERT_EQ(run({"optimize", topo_path_, lib_path_}), 0) << err_.str();
  const std::string s = out_.str();
  EXPECT_NE(s.find("best area:"), std::string::npos);
  EXPECT_NE(s.find("shape curve:"), std::string::npos);
  EXPECT_NE(s.find("R_Selection:  0 calls"), std::string::npos) << "exact by default";
}

TEST_F(CliTest, SelectionFlagsAreApplied) {
  ASSERT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "2", "--k2", "4", "--theta",
                 "0.9", "--scap", "128", "--metric", "linf"}),
            0)
      << err_.str();
  // With K1 = 2 some rect node must have been reduced.
  EXPECT_EQ(out_.str().find("R_Selection:  0 calls"), std::string::npos) << out_.str();
}

TEST_F(CliTest, PlaceEmitsOneRoomPerModule) {
  ASSERT_EQ(run({"place", topo_path_, lib_path_}), 0) << err_.str();
  const std::string s = out_.str();
  std::size_t rooms = 0;
  for (std::size_t pos = 0; (pos = s.find(" room x=", pos)) != std::string::npos; ++pos) {
    ++rooms;
  }
  EXPECT_EQ(rooms, 6u) << s;
}

TEST_F(CliTest, PlaceWithExplicitImplementationIndex) {
  ASSERT_EQ(run({"place", topo_path_, lib_path_, "--impl", "0"}), 0) << err_.str();
  EXPECT_NE(run({"place", topo_path_, lib_path_, "--impl", "9999"}), 0);
  EXPECT_NE(err_.str().find("out of range"), std::string::npos);
}

// Regression: --impl used to signal "unset" with the all-ones sentinel
// static_cast<size_t>(-1), so a user-passed maximal index silently meant
// "pick the min-area implementation" instead of failing. It now must be
// rejected (huge values at parse, in-range-of-type values as out of range).
TEST_F(CliTest, ImplIndexMaxValueIsNotASentinel) {
  // The maximal size_t is an ordinary (out-of-range) index, not a parse
  // failure and never a silent fall-back to the min-area implementation.
  EXPECT_NE(run({"place", topo_path_, lib_path_, "--impl", "18446744073709551615"}), 0);
  EXPECT_NE(err_.str().find("out of range"), std::string::npos) << err_.str();
  EXPECT_EQ(out_.str().find("chip "), std::string::npos)
      << "a maximal --impl must never place anything: " << out_.str();
  EXPECT_NE(run({"place", topo_path_, lib_path_, "--impl", "2147483647"}), 0);
  EXPECT_NE(err_.str().find("out of range"), std::string::npos) << err_.str();
  EXPECT_NE(run({"place", topo_path_, lib_path_, "--impl", "-1"}), 0);
  EXPECT_NE(err_.str().find("bad value"), std::string::npos) << err_.str();
}

// Regression: --theta was parsed with std::stod without an end-position
// check, so trailing garbage ("0.5xyz") was silently accepted.
TEST_F(CliTest, ThetaRejectsTrailingGarbage) {
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--theta", "0.5xyz"}), 0);
  EXPECT_NE(err_.str().find("bad value '0.5xyz'"), std::string::npos) << err_.str();
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--lambda", "1.0q"}), 0);
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--theta", "0.5"}), 0) << err_.str();
  // std::stod accepts "nan" and "inf" whole; neither is a value (NaN
  // passes both sides of the (0, 1] check).
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--theta", "nan"}), 2);
  EXPECT_NE(err_.str().find("bad value 'nan' for --theta"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--theta", "inf"}), 2);
  EXPECT_NE(err_.str().find("bad value 'inf' for --theta"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"anneal", topo_path_, lib_path_, "--lambda", "nan"}), 2);
  EXPECT_NE(err_.str().find("bad value 'nan' for --lambda"), std::string::npos) << err_.str();
}

// Regression: the --cache-mb MB-to-bytes shift had no overflow guard and
// accepted 0 (a budget that evicts everything immediately).
TEST_F(CliTest, CacheMbRejectsZeroAndOverflow) {
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--incremental", "--cache-mb", "0"}), 0);
  EXPECT_NE(err_.str().find("--cache-mb must be at least 1"), std::string::npos)
      << err_.str();
  // (size_t max >> 20) + 1 MiB overflows the byte budget on 64-bit.
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--incremental", "--cache-mb",
                 "17592186044416"}),
            0);
  EXPECT_NE(err_.str().find("overflows the byte budget"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--incremental", "--cache-mb", "4"}), 0)
      << err_.str();
}

// Regression: --k1 1 reached r_selection(list, 1), whose keep-both-
// endpoints precondition aborted the process.
TEST_F(CliTest, K1OfOneIsAUsageError) {
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "1"}), 2);
  EXPECT_NE(err_.str().find("--k1 must be 0 or at least 2"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "0"}), 0) << err_.str();
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "2"}), 0) << err_.str();
}

// Regression: --threads took any value, and a run-owned pool started that
// many OS threads. `stats` parses the flags without running the optimizer,
// so the largest accepted value is checked without starting a pool.
TEST_F(CliTest, ThreadsAboveTheCapIsAUsageError) {
  EXPECT_EQ(run({"optimize", topo_path_, lib_path_, "--threads", "257"}), 2);
  EXPECT_NE(err_.str().find("--threads must be at most 256"), std::string::npos) << err_.str();
  EXPECT_EQ(run({"stats", topo_path_, lib_path_, "--threads", "256"}), 0) << err_.str();
}

TEST_F(CliTest, SvgWritesAFile) {
  const std::string svg_path = unique_path("cli_test.svg");
  std::remove(svg_path.c_str());
  ASSERT_EQ(run({"svg", topo_path_, lib_path_, svg_path}), 0) << err_.str();
  std::ifstream in(svg_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("<svg"), std::string::npos);
}

TEST_F(CliTest, BudgetAbortIsReported) {
  const int rc = run({"optimize", topo_path_, lib_path_, "--budget", "5"});
  EXPECT_NE(rc, 0);
  EXPECT_NE(err_.str().find("out of memory"), std::string::npos);
}

TEST_F(CliTest, StatsJsonIsSchemaValidAndRepeatRunsAreByteIdentical) {
  const std::string json_path = unique_path("cli_report.json");
  ASSERT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "2", "--k2", "4", "--stats-json",
                 json_path}),
            0)
      << err_.str();
  const std::string first = slurp(json_path);
  const telemetry::JsonParseResult parsed = telemetry::parse_json(first);
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const std::vector<std::string> errors = telemetry::validate_run_report(*parsed.value);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  // Counters and config are deterministic and seconds/phases measure a
  // serial run of the same work — but wall-clock digits differ between
  // runs, so byte-compare everything up to the timing sections only.
  ASSERT_EQ(run({"optimize", topo_path_, lib_path_, "--k1", "2", "--k2", "4", "--stats-json",
                 json_path}),
            0)
      << err_.str();
  const std::string second = slurp(json_path);
  const auto timing_free = [](const std::string& doc) {
    return doc.substr(0, doc.find("\"phases\""));
  };
  ASSERT_NE(timing_free(first).size(), 0u);
  EXPECT_EQ(timing_free(first), timing_free(second))
      << "serial counters must be byte-identical across repeat runs";
}

TEST_F(CliTest, StatsTablePrintsCounters) {
  ASSERT_EQ(run({"optimize", topo_path_, lib_path_, "--stats"}), 0) << err_.str();
  const std::string s = out_.str();
  EXPECT_NE(s.find("run report (fpopt optimize)"), std::string::npos) << s;
  EXPECT_NE(s.find("optimizer.nodes_evaluated"), std::string::npos) << s;
}

TEST_F(CliTest, AbortedRunStillEmitsAReportFlaggedAborted) {
  const std::string json_path = unique_path("cli_aborted.json");
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--budget", "5", "--stats-json",
                 json_path}),
            0);
  const telemetry::JsonParseResult parsed = telemetry::parse_json(slurp(json_path));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  EXPECT_TRUE(telemetry::validate_run_report(*parsed.value).empty());
  const telemetry::JsonValue* aborted =
      parsed.value->find("fpopt_run_report")->find("aborted");
  ASSERT_NE(aborted, nullptr);
  EXPECT_TRUE(aborted->boolean);
}

TEST_F(CliTest, AnnealEmitsItsOwnReport) {
  const std::string json_path = unique_path("cli_anneal.json");
  ASSERT_EQ(run({"anneal", lib_path_, "--moves", "200", "--seed", "2", "--incremental",
                 "--stats-json", json_path}),
            0)
      << err_.str();
  const telemetry::JsonParseResult parsed = telemetry::parse_json(slurp(json_path));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  EXPECT_TRUE(telemetry::validate_run_report(*parsed.value).empty());
  const std::string doc = slurp(json_path);
  EXPECT_NE(doc.find("\"anneal.moves\""), std::string::npos);
  EXPECT_NE(doc.find("\"cache.hits\""), std::string::npos) << "--incremental adds cache stats";
}

TEST_F(CliTest, ErrorHandling) {
  EXPECT_NE(run({}), 0);
  EXPECT_NE(run({"frobnicate", topo_path_, lib_path_}), 0);
  EXPECT_NE(run({"stats", topo_path_}), 0);
  EXPECT_NE(run({"stats", "/nonexistent/file", lib_path_}), 0);
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--k1"}), 0);
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--k1", "abc"}), 0);
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--theta", "2.0"}), 0);
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--metric", "l7"}), 0);
  EXPECT_NE(run({"optimize", topo_path_, lib_path_, "--bogus", "1"}), 0);
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, AnnealProducesAUsableTopology) {
  const std::string out_path = unique_path("cli_annealed.topo");
  ASSERT_EQ(run({"anneal", lib_path_, "--moves", "800", "--seed", "3", "--out", out_path}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("topology:"), std::string::npos);
  // The emitted topology must optimize cleanly.
  ASSERT_EQ(run({"optimize", out_path, lib_path_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("best area:"), std::string::npos);
}

TEST_F(CliTest, AnnealWithNetlistReportsWirelength) {
  const std::string net_path = unique_path("cli_test.net");
  write(net_path, "n0 a b\nn1 c d e\nn2 a f\n");
  ASSERT_EQ(run({"anneal", lib_path_, "--moves", "500", "--netlist", net_path, "--lambda",
                 "1.5"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("HPWL2:"), std::string::npos);
  EXPECT_NE(out_.str().find("lambda 1.5"), std::string::npos);
  // Broken netlist fails cleanly.
  write(net_path, "n0 a nosuch\n");
  EXPECT_NE(run({"anneal", lib_path_, "--netlist", net_path}), 0);
}

TEST_F(CliTest, MalformedInputsFailCleanly) {
  const std::string bad_topo = unique_path("cli_bad.topo");
  write(bad_topo, "(V a");
  EXPECT_NE(run({"stats", bad_topo, lib_path_}), 0);
  EXPECT_NE(err_.str().find("parse error"), std::string::npos);

  const std::string bad_lib = unique_path("cli_bad.lib");
  write(bad_lib, "a 0x3\n");
  EXPECT_NE(run({"stats", topo_path_, bad_lib}), 0);
}

}  // namespace
}  // namespace fpopt
