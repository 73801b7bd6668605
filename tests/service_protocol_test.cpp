// Protocol robustness for the fpoptd service (ISSUE: protocol-fuzz
// tests): malformed, truncated, oversized and interleaved frames must
// never crash or wedge the daemon — every frame gets exactly one
// response, every error response validates against the response schema
// and carries a distinct machine-readable code, and both transports
// (stdio pump, Unix socket) survive hostile byte streams.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_edit.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "telemetry/json.h"

namespace fpopt {
namespace {

constexpr const char* kTopology = "(V (H m0 m1) m2)";
constexpr const char* kLibrary = "m0 38x11 26x16\nm1 41x26 40x27\nm2 46x7 37x8\n";

std::string valid_frame(const std::string& id = "\"ok\"",
                        const std::string& options = "{\"k1\":4,\"k2\":4}") {
  return "{\"fpopt_request\":{\"schema_version\":1,\"id\":" + id +
         ",\"command\":\"optimize\",\"topology\":" + telemetry::json_quote(kTopology) +
         ",\"library\":" + telemetry::json_quote(kLibrary) + ",\"options\":" + options +
         "}}";
}

/// Parse + schema-validate one response line; returns the inner object.
telemetry::JsonValue checked_response(const std::string& line) {
  const telemetry::JsonParseResult doc = telemetry::parse_json(line);
  EXPECT_TRUE(doc.value.has_value()) << "unparseable response: " << line;
  if (!doc.value.has_value()) return {};
  const std::vector<std::string> violations = validate_service_response(*doc.value);
  EXPECT_TRUE(violations.empty()) << violations.front() << "\nline: " << line;
  return *doc.value->find("fpopt_response");
}

std::string error_code(const std::string& line) {
  const telemetry::JsonValue r = checked_response(line);
  const telemetry::JsonValue* status = r.find("status");
  if (status == nullptr || status->string != "error") return "";
  return r.find("error")->find("code")->string;
}

TEST(ServiceProtocol, DistinctErrorCodesPerFailureClass) {
  Service service(ServiceConfig{});
  const struct {
    const char* frame;
    const char* code;
  } kCases[] = {
      {"", "E_PARSE"},
      {"not json at all", "E_PARSE"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"id\":\"x\",\"command\":\"optimize\"",
       "E_PARSE"},  // truncated mid-document
      {"[1,2,3]", "E_SCHEMA"},
      {"{\"wrong_envelope\":{}}", "E_SCHEMA"},
      {"{\"fpopt_request\":{\"id\":\"x\",\"command\":\"stats\"}}",
       "E_SCHEMA"},  // missing schema_version
      {"{\"fpopt_request\":{\"schema_version\":99,\"command\":\"stats\"}}",
       "E_SCHEMA"},  // wrong version
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"stats\",\"library\":\"\"}}",
       "E_SCHEMA"},  // missing topology
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"stats\",\"topology\":\"\","
       "\"library\":\"\",\"surprise\":1}}",
       "E_SCHEMA"},  // unknown member
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"explode\"}}", "E_COMMAND"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"theta\":7}}}",
       "E_OPTION"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"warp\":1}}}",
       "E_OPTION"},  // unknown option
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"metric\":\"l9\"}}}",
       "E_OPTION"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"((((\",\"library\":\"\"}}",
       "E_INPUT"},
      // Non-finite doubles: 1e999 parses to +/-inf, and NaN would sail
      // through ordered range checks (every comparison is false) — both
      // must be rejected at the option layer, not poison the solver.
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"theta\":1e999}}}",
       "E_OPTION"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"theta\":-1e999}}}",
       "E_OPTION"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"theta\":0}}}",
       "E_OPTION"},  // theta must be in (0, 1]
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"k1\":1}}}",
       "E_OPTION"},  // k1 must be 0 or at least 2
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"options\":{\"threads\":257}}}",
       "E_OPTION"},  // threads must be at most 256
      // Traffic-policy members: integer 0..2 priority, bounded deadline,
      // run commands only.
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"priority\":3}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"priority\":\"high\"}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"deadline_ms\":-5}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"deadline_ms\":99999999999}}",
       "E_SCHEMA"},  // over the 24h ceiling
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"ping\",\"priority\":2}}",
       "E_SCHEMA"},  // control verbs take no traffic policy
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(error_code(service.handle_frame(c.frame)), c.code) << "frame: " << c.frame;
  }
  // And the budget class, end to end: an impossible budget aborts.
  const std::string abort_frame =
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
      "\"topology\":" +
      std::string(telemetry::json_quote(kTopology)) +
      ",\"library\":" + telemetry::json_quote(kLibrary) +
      ",\"options\":{\"budget\":1}}}";
  EXPECT_EQ(error_code(service.handle_frame(abort_frame)), "E_BUDGET");
}

TEST(ServiceProtocol, IdIsEchoedIntoErrorResponses) {
  Service service(ServiceConfig{});
  const std::string line = service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"id\":\"abc\",\"command\":\"nope\"}}");
  const telemetry::JsonValue r = checked_response(line);
  EXPECT_EQ(r.find("id")->string, "abc");
  const std::string numeric = service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"id\":41,\"command\":\"nope\"}}");
  EXPECT_EQ(checked_response(numeric).find("id")->integer, 41);
}

TEST(ServiceProtocol, ResponseBytesWithoutAReportArePinned) {
  EXPECT_EQ(build_ok_response("\"x\"", "best area: 42\n\"q\"\t\x01", ""),
            R"({"fpopt_response":{"schema_version":1,"id":"x","status":"ok",)"
            R"("output":"best area: 42\n\"q\"\t\u0001"}})");
  EXPECT_EQ(build_error_response("7",
                                 {ServiceErrorCode::kOption, "option 'theta' must be in (0, 1]"},
                                 ""),
            R"({"fpopt_response":{"schema_version":1,"id":7,"status":"error",)"
            R"("error":{"code":"E_OPTION","message":"option 'theta' must be in (0, 1]"}}})");
  EXPECT_EQ(build_error_response("null", {ServiceErrorCode::kParse, ""}, ""),
            R"({"fpopt_response":{"schema_version":1,"id":null,"status":"error",)"
            R"("error":{"code":"E_PARSE","message":""}}})");
}

TEST(ServiceProtocol, EveryResponseRuleRejectsItsMutation) {
  Service service(ServiceConfig{});
  std::string frame = valid_frame();
  frame.insert(frame.size() - 2, ",\"report\":true");
  const telemetry::JsonParseResult ok = telemetry::parse_json(service.handle_frame(frame));
  const telemetry::JsonParseResult error =
      telemetry::parse_json(service.handle_frame("{\"fpopt_request\":{\"schema_version\":1,"
                                                 "\"id\":\"e\",\"command\":\"nope\"}}"));
  ASSERT_TRUE(ok.value.has_value() && error.value.has_value());
  ASSERT_NE(ok.value->find("fpopt_response")->find("fpopt_run_report"), nullptr);
  ASSERT_EQ(validate_service_response(*ok.value), std::vector<std::string>{});
  ASSERT_EQ(validate_service_response(*error.value), std::vector<std::string>{});
  const struct {
    bool ok;
    test::JsonEdit edit;
  } kRows[] = {
      {true, {"/extra", "1"}},
      {true, {"/fpopt_response", "[]"}},
      {true, {"/fpopt_response/schema_version", "2"}},
      {true, {"/fpopt_response/schema_version", nullptr}},
      {true, {"/fpopt_response/id", nullptr}},
      {true, {"/fpopt_response/id", "1.5"}},
      {true, {"/fpopt_response/id", "[]"}},
      {true, {"/fpopt_response/status", "\"maybe\""}},
      {true, {"/fpopt_response/status", nullptr}},
      {true, {"/fpopt_response/output", nullptr}},
      {true, {"/fpopt_response/output", "3"}},
      {true, {"/fpopt_response/error", R"({"code":"E_PARSE","message":"x"})"}},
      {true, {"/fpopt_response/extra", "1"}},
      {true, {"/fpopt_response/fpopt_run_report/schema_version", "2"}},
      {true, {"/fpopt_response/fpopt_run_report/counters/cache.x", "-1"}},
      {true, {"/fpopt_response/fpopt_run_report/phases", "{}"}},
      {false, {"/fpopt_response/id", "true"}},
      {false, {"/fpopt_response/output", "\"x\""}},
      {false, {"/fpopt_response/error", nullptr}},
      {false, {"/fpopt_response/error", "\"E_COMMAND\""}},
      {false, {"/fpopt_response/error/code", "\"E_NOPE\""}},
      {false, {"/fpopt_response/error/code", nullptr}},
      {false, {"/fpopt_response/error/message", "1"}},
      {false, {"/fpopt_response/error/message", nullptr}},
  };
  for (const auto& row : kRows) {
    SCOPED_TRACE(std::string(row.ok ? "ok: " : "error: ") + test::edit_label(row.edit));
    telemetry::JsonValue doc = row.ok ? *ok.value : *error.value;
    ASSERT_TRUE(test::apply_edit(doc, row.edit));
    EXPECT_FALSE(validate_service_response(doc).empty());
  }
}

TEST(ServiceProtocol, OversizedFramesAreRejectedNotFatal) {
  ServiceConfig config;
  config.max_frame_bytes = 512;
  Service service(config);
  const std::string big(600, 'x');
  EXPECT_EQ(error_code(service.handle_frame(big)), "E_OVERSIZED");
  // The service still works afterwards.
  EXPECT_EQ(error_code(service.handle_frame(valid_frame())), "");
}

TEST(ServiceProtocol, LineSplitterResynchronizesAfterOversizedFrame) {
  LineSplitter splitter(64);
  std::vector<std::pair<std::string, bool>> frames;
  const std::string input = std::string(500, 'a') + "\nshort\n";
  splitter.feed(input.data(), input.size(),
                [&](const std::string& f, bool oversized) { frames.emplace_back(f, oversized); });
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].second);
  EXPECT_EQ(frames[0].first.size(), 65u);  // truncated to max + 1, memory stays bounded
  EXPECT_FALSE(frames[1].second);
  EXPECT_EQ(frames[1].first, "short");
  EXPECT_FALSE(splitter.has_partial());
}

TEST(ServiceProtocol, SplitterHandlesArbitraryChunkBoundaries) {
  // The same byte stream must yield the same frames no matter how the
  // transport's reads slice it.
  const std::string stream = valid_frame("1") + "\n" + std::string(300, 'z') + "\n" +
                             valid_frame("2") + "\npartial-tail";
  std::mt19937 rng(11);
  std::vector<std::string> reference;
  {
    LineSplitter s(128);
    s.feed(stream.data(), stream.size(),
           [&](const std::string& f, bool) { reference.push_back(f); });
    if (s.has_partial()) reference.push_back(s.partial());
  }
  for (int round = 0; round < 20; ++round) {
    LineSplitter s(128);
    std::vector<std::string> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng() % 37, stream.size() - off);
      s.feed(stream.data() + off, n, [&](const std::string& f, bool) { got.push_back(f); });
      off += n;
    }
    if (s.has_partial()) got.push_back(s.partial());
    EXPECT_EQ(got, reference) << "round " << round;
  }
}

TEST(ServiceProtocol, FuzzedFramesNeverCrashAndAlwaysRespond) {
  ServiceConfig config;
  config.max_frame_bytes = 4096;
  Service service(config);
  std::mt19937 rng(42);
  const std::string seed_frame = valid_frame();
  for (int round = 0; round < 300; ++round) {
    std::string frame;
    switch (rng() % 4) {
      case 0: {  // random garbage bytes (newline-free: one frame)
        const std::size_t len = rng() % 200;
        for (std::size_t i = 0; i < len; ++i) {
          char c = static_cast<char>(rng() % 256);
          if (c == '\n') c = ' ';
          frame.push_back(c);
        }
        break;
      }
      case 1:  // truncated valid frame
        frame = seed_frame.substr(0, rng() % seed_frame.size());
        break;
      case 2: {  // valid frame with mutated bytes
        frame = seed_frame;
        for (int m = 0; m < 3; ++m) {
          char c = static_cast<char>(rng() % 256);
          if (c == '\n') c = '?';
          frame[rng() % frame.size()] = c;
        }
        break;
      }
      default:  // structurally valid JSON, hostile content
        frame = "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
                "\"topology\":\"" +
                std::string(rng() % 40, '(') + "\",\"library\":\"junk\"}}";
        break;
    }
    const std::string response = service.handle_frame(frame);
    // Exactly one syntactically valid, schema-valid response per frame.
    (void)checked_response(response);
    EXPECT_EQ(response.find('\n'), std::string::npos);
  }
  // The service is still healthy after the barrage.
  const telemetry::JsonValue r = checked_response(service.handle_frame(valid_frame()));
  EXPECT_EQ(r.find("status")->string, "ok");
}

TEST(ServiceProtocol, StdioTransportRespondsInOrderAndHonorsShutdown) {
  ServiceConfig config;
  Service service(config);
  // "k1": 1 once reached R_Selection's keep-both-endpoints assert and
  // aborted the daemon; it must be refused and the next frame served.
  std::istringstream in(valid_frame("1") + "\ngarbage\n" + valid_frame("3", "{\"k1\":1}") +
                        "\n" + valid_frame("2") + "\n" +
                        "{\"fpopt_request\":{\"schema_version\":1,\"id\":\"bye\","
                        "\"command\":\"shutdown\"}}\n" +
                        valid_frame("\"after\"") + "\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  // Five responses — the frame after shutdown is dropped.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(checked_response(lines[0]).find("id")->integer, 1);
  EXPECT_EQ(error_code(lines[1]), "E_PARSE");
  EXPECT_EQ(error_code(lines[2]), "E_OPTION");
  EXPECT_EQ(checked_response(lines[3]).find("id")->integer, 2);
  EXPECT_EQ(checked_response(lines[4]).find("id")->string, "bye");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServiceProtocol, StdioHandlesUnterminatedFinalLine) {
  Service service(ServiceConfig{});
  std::istringstream in(valid_frame("7"));  // no trailing newline
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  std::string line = out.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // trailing '\n'
  EXPECT_EQ(checked_response(line).find("id")->integer, 7);
}

// ---------------------------------------------------------------------------
// Unix-socket transport: a raw client sends interleaved and fragmented
// frames over a real AF_UNIX connection.

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  // The server binds asynchronously; retry briefly.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "cannot connect to " << path;
  ::close(fd);
  return -1;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string partial;
  char chunk[1024];
  while (lines.size() < count) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') {
        lines.push_back(partial);
        partial.clear();
      } else {
        partial.push_back(chunk[i]);
      }
    }
  }
  return lines;
}

TEST(ServiceProtocol, UnixSocketSurvivesFragmentedAndAbortedClients) {
  const std::string socket_path =
      testing::TempDir() +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".sock";
  ServiceConfig config;
  config.max_frame_bytes = 1u << 16;
  Service service(config);
  std::ostringstream server_err;
  std::thread server([&] { EXPECT_EQ(serve_unix(service, socket_path, server_err), 0); });

  {
    // Client 1: two pipelined requests written in tiny fragments.
    const int fd = connect_to(socket_path);
    ASSERT_GE(fd, 0);
    const std::string stream = valid_frame("1") + "\n" + valid_frame("2") + "\n";
    for (std::size_t off = 0; off < stream.size(); off += 7) {
      send_all(fd, stream.substr(off, 7));
    }
    const std::vector<std::string> lines = read_lines(fd, 2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(checked_response(lines[0]).find("id")->integer, 1);
    EXPECT_EQ(checked_response(lines[1]).find("id")->integer, 2);
    ::close(fd);
  }
  {
    // Client 2: slams garbage and disconnects mid-frame; must not wedge
    // the server.
    const int fd = connect_to(socket_path);
    ASSERT_GE(fd, 0);
    send_all(fd, "garbage without newline, then the client dies");
    ::close(fd);
  }
  {
    // Client 3: still served after the rude one, then shuts the daemon
    // down cleanly.
    const int fd = connect_to(socket_path);
    ASSERT_GE(fd, 0);
    send_all(fd, valid_frame("3") + "\n{\"fpopt_request\":{\"schema_version\":1,"
                                    "\"id\":\"bye\",\"command\":\"shutdown\"}}\n");
    const std::vector<std::string> lines = read_lines(fd, 2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(checked_response(lines[0]).find("id")->integer, 3);
    EXPECT_EQ(checked_response(lines[1]).find("id")->string, "bye");
    ::close(fd);
  }
  server.join();
  EXPECT_EQ(server_err.str(), "");
}

}  // namespace
}  // namespace fpopt
