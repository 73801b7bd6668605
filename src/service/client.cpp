#include "service/client.h"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "service/protocol.h"
#include "telemetry/json.h"

namespace fpopt {
namespace {

struct ClientError {
  std::string message;
};

constexpr const char* kUsage =
    "usage: fpopt client --connect <endpoint> [command ...]\n"
    "  <endpoint>: a Unix socket path, unix://<path>, or tcp://<host:port>\n"
    "  (no command)                      pipe JSONL request frames from stdin,\n"
    "                                    print response frames as they arrive\n"
    "  stats|optimize|place <topology-file> <library-file> [flags]\n"
    "                                    run one remote command; prints the\n"
    "                                    standalone CLI's byte-exact output\n"
    "  ping | shutdown                   control verbs\n"
    "  metrics [--format json|prometheus]\n"
    "                                    print the daemon's metrics snapshot\n"
    "  trace [--pick recent|slowest|list]\n"
    "                                    print a retained request trace\n"
    "flags: --k1 N --k2 N --theta X --scap N --budget N --threads N\n"
    "       --metric l1|l2|linf --incremental --cache-mb N --impl I --id S\n"
    "       --priority 0|1|2 --deadline-ms N --trace\n";

/// True for the verbs that carry no topology/library payload.
bool is_control_verb(const std::string& command) {
  return command == "ping" || command == "shutdown" || command == "metrics" ||
         command == "trace";
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw ClientError{"cannot open '" + path + "'"};
  std::ostringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) throw ClientError{"socket path too long: " + path};
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw ClientError{std::string("socket: ") + std::strerror(errno)};
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw ClientError{"cannot connect to '" + path + "': " + reason};
  }
  return fd;
}

int connect_tcp(const std::string& host_port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 == host_port.size()) {
    throw ClientError{"tcp endpoint needs <host:port>, got '" + host_port + "'"};
  }
  std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    host = host.substr(1, host.size() - 2);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &found);
  if (gai != 0) {
    throw ClientError{"cannot resolve '" + host_port + "': " + ::gai_strerror(gai)};
  }
  int fd = -1;
  std::string reason = "no usable address";
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    reason = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) throw ClientError{"cannot connect to '" + host_port + "': " + reason};
  return fd;
}

/// `--connect` endpoint: `tcp://host:port`, `unix://path`, or a bare
/// Unix socket path (the historical form).
int connect_endpoint(const std::string& target) {
  constexpr const char* kTcp = "tcp://";
  constexpr const char* kUnix = "unix://";
  if (target.rfind(kTcp, 0) == 0) return connect_tcp(target.substr(std::strlen(kTcp)));
  if (target.rfind(kUnix, 0) == 0) return connect_unix(target.substr(std::strlen(kUnix)));
  return connect_unix(target);
}

/// Send `frames` (already newline-terminated as one byte stream) and
/// invoke `on_response` for each response line, fully pipelined: one poll
/// loop interleaves writes and reads so the daemon can work on every
/// request concurrently. Returns when `expected` responses arrived or the
/// daemon closed the connection.
template <typename Fn>
void pump(int fd, const std::string& outgoing, std::size_t expected, Fn&& on_response) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  std::size_t sent = 0;
  std::size_t received = 0;
  std::string partial;
  char chunk[4096];
  while (received < expected) {
    pollfd pfd{fd, POLLIN, 0};
    if (sent < outgoing.size()) pfd.events |= POLLOUT;
    if (::poll(&pfd, 1, -1) < 0) {
      if (errno == EINTR) continue;
      throw ClientError{std::string("poll: ") + std::strerror(errno)};
    }
    if ((pfd.revents & POLLOUT) != 0 && sent < outgoing.size()) {
      const ssize_t n =
          ::send(fd, outgoing.data() + sent, outgoing.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw ClientError{std::string("send: ") + std::strerror(errno)};
      }
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw ClientError{std::string("read: ") + std::strerror(errno)};
      }
      if (n == 0) {
        if (received < expected) {
          throw ClientError{"daemon closed the connection after " +
                            std::to_string(received) + " of " +
                            std::to_string(expected) + " responses"};
        }
        break;
      }
      for (ssize_t i = 0; i < n; ++i) {
        if (chunk[i] == '\n') {
          on_response(partial);
          partial.clear();
          ++received;
        } else {
          partial.push_back(chunk[i]);
        }
      }
    }
  }
}

struct ClientArgs {
  std::string endpoint;
  std::string command;  ///< empty = frames passthrough mode
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;  ///< JSON key -> token
  std::string id_json = "null";
  std::string priority;     ///< top-level "priority" token; empty = omit
  std::string deadline_ms;  ///< top-level "deadline_ms" token; empty = omit
  std::string format;       ///< metrics verb: "json"/"prometheus"; empty = omit
  std::string pick;         ///< trace verb: "recent"/"slowest"/"list"; empty = omit
  bool trace = false;       ///< run commands: request a server-side trace capture
};

/// JSON token for a numeric flag value; client-side validation is
/// deliberately thin — the daemon re-validates everything and its error
/// message travels back in the response. NaN and infinity are refused
/// here: they have no JSON token, so the frame would not parse.
std::string number_token(const std::string& flag, const std::string& value) {
  if (value.empty()) throw ClientError{"flag " + flag + " needs a value"};
  std::size_t pos = 0;
  try {
    if (!std::isfinite(std::stod(value, &pos))) pos = 0;
  } catch (...) {
    pos = 0;
  }
  if (pos != value.size()) throw ClientError{"bad value '" + value + "' for " + flag};
  return value;
}

ClientArgs parse_client_args(const std::vector<std::string>& args) {
  ClientArgs parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto need_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw ClientError{"flag " + a + " needs a value"};
      return args[++i];
    };
    if (a == "--connect") {
      parsed.endpoint = need_value();
    } else if (a == "--id") {
      parsed.id_json = telemetry::json_quote(need_value());
    } else if (a == "--priority") {
      parsed.priority = number_token(a, need_value());
    } else if (a == "--deadline-ms") {
      parsed.deadline_ms = number_token(a, need_value());
    } else if (a == "--format") {
      parsed.format = need_value();
    } else if (a == "--pick") {
      parsed.pick = need_value();
    } else if (a == "--trace") {
      parsed.trace = true;
    } else if (a == "--incremental") {
      parsed.options.emplace_back("incremental", "true");
    } else if (a == "--metric") {
      parsed.options.emplace_back("metric", telemetry::json_quote(need_value()));
    } else if (a == "--k1" || a == "--k2" || a == "--theta" || a == "--scap" ||
               a == "--budget" || a == "--threads" || a == "--impl") {
      const std::string key = a.substr(2);
      parsed.options.emplace_back(key, number_token(a, need_value()));
    } else if (a == "--cache-mb") {
      parsed.options.emplace_back("cache_mb", number_token(a, need_value()));
    } else if (a.rfind("--", 0) == 0) {
      throw ClientError{"unknown flag " + a};
    } else if (parsed.command.empty()) {
      parsed.command = a;
    } else {
      parsed.positional.push_back(a);
    }
  }
  if (parsed.endpoint.empty()) throw ClientError{"--connect <endpoint> is required"};
  return parsed;
}

std::string build_request(const ClientArgs& parsed) {
  telemetry::JsonWriter w;
  w.begin_object().key("fpopt_request").begin_object();
  w.key("schema_version").i64(kServiceSchemaVersion).key("id").raw(parsed.id_json);
  w.key("command").str(parsed.command);
  if (is_control_verb(parsed.command)) {
    if (!parsed.format.empty()) w.key("format").str(parsed.format);
    if (!parsed.pick.empty()) w.key("pick").str(parsed.pick);
  } else {
    if (parsed.positional.size() < 2) {
      throw ClientError{"command '" + parsed.command +
                        "' needs <topology-file> <library-file>"};
    }
    w.key("topology").str(read_file(parsed.positional[0]));
    w.key("library").str(read_file(parsed.positional[1]));
    if (!parsed.options.empty()) {
      w.key("options").begin_object();
      for (const auto& [key, token] : parsed.options) w.key(key).raw(token);
      w.end_object();
    }
    if (!parsed.priority.empty()) w.key("priority").raw(parsed.priority);
    if (!parsed.deadline_ms.empty()) w.key("deadline_ms").raw(parsed.deadline_ms);
    if (parsed.trace) w.key("trace").boolean(true);
  }
  w.end_object().end_object();
  return std::move(w).text();
}

int run_frames_mode(const ClientArgs& parsed, std::istream& in, std::ostream& out) {
  std::vector<std::string> frames;
  std::string line;
  while (std::getline(in, line)) frames.push_back(line);
  if (frames.empty()) return 0;
  std::string outgoing;
  for (const std::string& f : frames) {
    outgoing += f;
    outgoing += '\n';
  }
  const int fd = connect_endpoint(parsed.endpoint);
  try {
    pump(fd, outgoing, frames.size(),
         [&](const std::string& response) { out << response << '\n' << std::flush; });
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return 0;
}

int run_command_mode(const ClientArgs& parsed, std::ostream& out, std::ostream& err) {
  const std::string request = build_request(parsed) + "\n";
  const int fd = connect_endpoint(parsed.endpoint);
  std::string response;
  try {
    pump(fd, request, 1, [&](const std::string& line) { response = line; });
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  const telemetry::JsonParseResult doc = telemetry::parse_json(response);
  if (!doc.value.has_value()) {
    throw ClientError{"daemon sent unparseable JSON: " + doc.error};
  }
  const std::vector<std::string> violations = validate_service_response(*doc.value);
  if (!violations.empty()) {
    throw ClientError{"daemon response violates the schema: " + violations.front()};
  }
  const telemetry::JsonValue& r = *doc.value->find("fpopt_response");
  if (r.find("status")->string == "ok") {
    out << r.find("output")->string;
    return 0;
  }
  const telemetry::JsonValue* error = r.find("error");
  const std::string& code = error->find("code")->string;
  err << "fpopt: " << error->find("message")->string << " [" << code << "]\n";
  return client_exit_code(code);
}

}  // namespace

int client_exit_code(const std::string& error_code) {
  // Keep this table in sync with the header comment and the exit-code
  // test table in service_observability_test.cpp.
  if (error_code == "E_INPUT") return 3;
  if (error_code == "E_OPTION") return 4;
  if (error_code == "E_BUDGET") return 5;
  if (error_code == "E_DEADLINE") return 6;
  if (error_code == "E_OVERLOADED") return 7;
  if (error_code == "E_OVERSIZED") return 8;
  if (error_code == "E_SCHEMA") return 9;
  if (error_code == "E_COMMAND") return 10;
  if (error_code == "E_PARSE") return 11;
  return 12;  // E_INTERNAL and anything a newer daemon invents
}

int run_client(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  try {
    const ClientArgs parsed = parse_client_args(args);
    if (parsed.command.empty()) return run_frames_mode(parsed, in, out);
    return run_command_mode(parsed, out, err);
  } catch (const ClientError& e) {
    err << "fpopt client: " << e.message << '\n' << kUsage;
    return 2;
  }
}

}  // namespace fpopt
