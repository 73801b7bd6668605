#include "io/cli.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "cache/memo_cache.h"
#include "floorplan/serialize.h"
#include "io/command.h"
#include "io/run_report_build.h"
#include "io/svg.h"
#include "optimize/optimizer.h"
#include "net/netlist.h"
#include "optimize/placement.h"
#include "telemetry/json.h"
#include "telemetry/trace.h"
#include "topology/annealing.h"

namespace fpopt {
namespace {

struct CliError {
  std::string message;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CliError{"cannot open '" + path + "'"};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ParsedArgs {
  std::string command;
  std::vector<std::string> positional;
  OptimizerOptions options;
  std::optional<std::size_t> impl_index;  // place: unset = min area
  std::size_t cache_bytes = MemoCache::kDefaultByteBudget;  // --cache-mb
  bool show_stats = false;      // --stats: human-readable run report
  std::string stats_json_path;  // --stats-json: write the JSON run report
  std::string trace_path;       // --trace: write a Chrome trace-event JSON
  // anneal:
  AnnealingOptions anneal;
  std::string netlist_path;
  std::string out_path;

  [[nodiscard]] CommandSpec spec() const {
    return CommandSpec{command, options, impl_index, cache_bytes};
  }
};

long parse_long(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(value, &pos);
    if (pos != value.size() || v < 0) throw CliError{""};
    return v;
  } catch (...) {
    throw CliError{"bad value '" + value + "' for " + flag};
  }
}

/// Full-range unsigned index (e.g. --impl). Parsed with stoull so every
/// representable std::size_t — including the maximal one, which the old
/// code reserved as an "unset" sentinel — is a legitimate value that gets
/// a proper range check downstream instead of a parse failure.
std::size_t parse_index(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    // stoull silently wraps "-1"; reject any sign explicitly.
    if (value.empty() || value[0] == '-' || value[0] == '+') throw CliError{""};
    const unsigned long long v = std::stoull(value, &pos);
    if (pos != value.size() || v > std::numeric_limits<std::size_t>::max()) throw CliError{""};
    return static_cast<std::size_t>(v);
  } catch (...) {
    throw CliError{"bad value '" + value + "' for " + flag};
  }
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    // stod parses the longest valid prefix; trailing garbage ("0.5xyz")
    // must be a hard error, exactly like parse_long. It also accepts
    // "nan" and "inf", which pass no range check (NaN compares false both
    // ways) and have no JSON token, so they are refused as well.
    if (pos != value.size() || !std::isfinite(v)) throw CliError{""};
    return v;
  } catch (...) {
    throw CliError{"bad value '" + value + "' for " + flag};
  }
}

ParsedArgs parse_args(const std::vector<std::string>& args) {
  if (args.empty()) throw CliError{"no command given"};
  ParsedArgs parsed;
  parsed.command = args[0];
  parsed.options.impl_budget = 0;  // CLI default: no simulated limit

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      parsed.positional.push_back(a);
      continue;
    }
    const auto need_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw CliError{"flag " + a + " needs a value"};
      return args[++i];
    };
    if (a == "--k1") {
      parsed.options.selection.k1 = static_cast<std::size_t>(parse_long(a, need_value()));
      if (parsed.options.selection.k1 == 1) throw CliError{"--k1 must be 0 or at least 2"};
    } else if (a == "--k2") {
      parsed.options.selection.k2 = static_cast<std::size_t>(parse_long(a, need_value()));
    } else if (a == "--theta") {
      parsed.options.selection.theta = parse_double(a, need_value());
      if (parsed.options.selection.theta <= 0 || parsed.options.selection.theta > 1) {
        throw CliError{"--theta must be in (0, 1]"};
      }
    } else if (a == "--scap") {
      parsed.options.selection.heuristic_cap =
          static_cast<std::size_t>(parse_long(a, need_value()));
    } else if (a == "--budget") {
      parsed.options.impl_budget = static_cast<std::size_t>(parse_long(a, need_value()));
    } else if (a == "--threads") {
      parsed.options.threads = static_cast<std::size_t>(parse_long(a, need_value()));
      if (parsed.options.threads > OptimizerOptions::kMaxThreads) {
        throw CliError{"--threads must be at most " +
                       std::to_string(OptimizerOptions::kMaxThreads)};
      }
    } else if (a == "--incremental") {
      parsed.options.incremental = true;
      parsed.anneal.incremental = true;
    } else if (a == "--cache-mb") {
      const std::size_t mb = static_cast<std::size_t>(parse_long(a, need_value()));
      if (mb == 0) throw CliError{"--cache-mb must be at least 1 (MiB)"};
      if (mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
        throw CliError{"--cache-mb " + std::to_string(mb) +
                       " overflows the byte budget (max " +
                       std::to_string(std::numeric_limits<std::size_t>::max() >> 20) + ")"};
      }
      parsed.cache_bytes = mb << 20;
      parsed.anneal.cache_bytes = parsed.cache_bytes;
    } else if (a == "--impl") {
      parsed.impl_index = parse_index(a, need_value());
    } else if (a == "--stats") {
      parsed.show_stats = true;
    } else if (a == "--stats-json") {
      parsed.stats_json_path = need_value();
    } else if (a == "--trace") {
      parsed.trace_path = need_value();
    } else if (a.rfind("--trace=", 0) == 0) {
      // Equals form too, for symmetry with fpopt_audit (where plain
      // --trace N means something else).
      parsed.trace_path = a.substr(8);
      if (parsed.trace_path.empty()) throw CliError{"flag --trace= needs a file name"};
    } else if (a == "--seed") {
      parsed.anneal.seed = static_cast<std::uint64_t>(parse_long(a, need_value()));
    } else if (a == "--moves") {
      parsed.anneal.max_total_moves = static_cast<std::size_t>(parse_long(a, need_value()));
    } else if (a == "--lambda") {
      parsed.anneal.lambda = parse_double(a, need_value());
    } else if (a == "--netlist") {
      parsed.netlist_path = need_value();
    } else if (a == "--out") {
      parsed.out_path = need_value();
    } else if (a == "--metric") {
      const std::string& v = need_value();
      if (v == "l1") {
        parsed.options.selection.metric = LpMetric::L1;
      } else if (v == "l2") {
        parsed.options.selection.metric = LpMetric::L2;
      } else if (v == "linf") {
        parsed.options.selection.metric = LpMetric::LInf;
      } else {
        throw CliError{"unknown metric '" + v + "' (expected l1, l2 or linf)"};
      }
    } else {
      throw CliError{"unknown flag " + a};
    }
  }
  return parsed;
}

FloorplanTree load_tree(const ParsedArgs& parsed) {
  if (parsed.positional.size() < 2) {
    throw CliError{"command '" + parsed.command + "' needs <topology-file> <library-file>"};
  }
  FloorplanTree tree = parse_floorplan(read_file(parsed.positional[0]),
                                       parse_module_library(read_file(parsed.positional[1])));
  const auto errors = tree.validate();
  if (!errors.empty()) throw CliError{"invalid floorplan: " + errors.front()};
  return tree;
}

bool wants_report(const ParsedArgs& parsed) {
  return parsed.show_stats || !parsed.stats_json_path.empty();
}

void emit_report(const telemetry::RunReport& report, const ParsedArgs& parsed,
                 std::ostream& out) {
  if (!parsed.stats_json_path.empty()) {
    std::ofstream file(parsed.stats_json_path, std::ios::binary);
    if (!file) throw CliError{"cannot write '" + parsed.stats_json_path + "'"};
    file << report.to_json(true);
  }
  if (parsed.show_stats) out << report.to_table();
}

/// Run the command through the shared execution core (io/command.h — the
/// same path the fpoptd daemon uses, which is what keeps daemon responses
/// byte-identical to this CLI). Reports are emitted even when the run
/// aborts over budget, before the abort is rethrown as the CLI error.
int run_command(const ParsedArgs& parsed, std::ostream& out) {
  const FloorplanTree tree = load_tree(parsed);
  telemetry::RunReport report("fpopt", parsed.command);
  telemetry::RunReport* report_ptr = wants_report(parsed) ? &report : nullptr;
  CommandEnv env;
  // Render --stats / --stats-json as soon as the report is populated:
  // ahead of the command output, and even when the run then aborts over
  // budget — a budget sweep post-processes every outcome uniformly.
  env.report_ready = [&] { emit_report(report, parsed, out); };
  try {
    execute_command(parsed.spec(), tree, env, out, report_ptr);
  } catch (const CommandError& e) {
    throw CliError{e.message};
  }
  return 0;
}

int cmd_svg(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.positional.size() < 3) {
    throw CliError{"svg needs <topology-file> <library-file> <out.svg>"};
  }
  const FloorplanTree tree = load_tree(parsed);
  telemetry::RunReport report("fpopt", parsed.command);
  telemetry::RunReport* report_ptr = wants_report(parsed) ? &report : nullptr;
  CommandEnv env;
  env.report_ready = [&] { emit_report(report, parsed, out); };
  std::optional<OptimizeOutcome> result;
  try {
    result = optimize_for_command(parsed.spec(), tree, env, report_ptr);
  } catch (const CommandError& e) {
    throw CliError{e.message};
  }
  Placement p;
  try {
    p = trace_command_placement(tree, *result, parsed.impl_index);
  } catch (const CommandError& e) {
    throw CliError{e.message};
  }
  std::ofstream file(parsed.positional[2], std::ios::binary);
  if (!file) throw CliError{"cannot write '" + parsed.positional[2] + "'"};
  file << placement_to_svg(p, tree);
  out << "wrote " << parsed.positional[2] << " (" << p.width << " x " << p.height << ")\n";
  return 0;
}

int cmd_anneal(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.positional.empty()) throw CliError{"anneal needs <library-file>"};
  std::vector<Module> modules = parse_module_library(read_file(parsed.positional[0]));
  if (modules.size() < 2) throw CliError{"anneal needs at least 2 modules"};

  AnnealingOptions sa = parsed.anneal;
  Netlist netlist;
  if (!parsed.netlist_path.empty()) {
    netlist = parse_netlist(read_file(parsed.netlist_path), modules);
    const auto errors = netlist.validate();
    if (!errors.empty()) throw CliError{"invalid netlist: " + errors.front()};
    sa.netlist = &netlist;
    if (sa.lambda <= 0) sa.lambda = 1.0;
  }

  const AnnealingResult r = anneal_slicing_topology(modules, sa);
  const FloorplanTree tree = r.best.to_tree(modules);
  out << "moves:        " << r.moves << " (" << r.accepted << " accepted)" << '\n'
      << "area:         " << r.initial_area << " -> " << r.best_area << '\n';
  if (sa.incremental) {
    out << "memo cache:   " << r.cache_stats.hits << '/' << r.cache_stats.probes()
        << " node hits, " << r.cache_stats.evictions << " evictions" << '\n';
  }
  if (sa.netlist != nullptr) {
    out << "cost:         " << r.initial_cost << " -> " << r.best_cost << " (lambda "
        << sa.lambda << ")" << '\n'
        << "HPWL2:        " << hpwl2(netlist, r.best.place(modules)) << '\n';
  }
  out << "topology:     " << to_topology_string(tree) << '\n';
  if (!parsed.out_path.empty()) {
    std::ofstream file(parsed.out_path, std::ios::binary);
    if (!file) throw CliError{"cannot write '" + parsed.out_path + "'"};
    file << to_topology_string(tree) << '\n';
    out << "wrote " << parsed.out_path << '\n';
  }
  if (wants_report(parsed)) {
    telemetry::RunReport report("fpopt", "anneal");
    report.add_config("seed", std::to_string(sa.seed));
    report.add_config("max_moves", std::to_string(sa.max_total_moves));
    report.add_config("lambda", telemetry::json_number(sa.lambda));
    report.add_config("incremental", sa.incremental ? "true" : "false");
    report_annealing(report, r);
    if (sa.incremental) report_cache(report, r.cache_stats);
    emit_report(report, parsed, out);
  }
  return 0;
}

constexpr const char* kUsage =
    "usage: fpopt <command> ... [flags]\n"
    "commands:\n"
    "  stats | optimize | place [--impl I] | svg <out.svg>   (args: <topology-file> <library-file>)\n"
    "  anneal <library-file> [--seed N --moves N --netlist F --lambda X --out F]\n"
    "  client --connect <socket> ...   (send requests to a running fpoptd; see docs/SERVICE.md)\n"
    "flags: --k1 N --k2 N --theta X --scap N --budget N --threads N --metric l1|l2|linf\n"
    "       --incremental [--cache-mb N]   (memo-cached re-optimization; see docs)\n"
    "       --stats (run-report table) --stats-json F (JSON run report; see docs §9)\n"
    "       --trace F (Chrome trace-event JSON of the run; see docs §10)\n";

int dispatch(const ParsedArgs& parsed, std::ostream& out) {
  if (parsed.command == "stats" || parsed.command == "optimize" || parsed.command == "place") {
    return run_command(parsed, out);
  }
  if (parsed.command == "svg") return cmd_svg(parsed, out);
  if (parsed.command == "anneal") return cmd_anneal(parsed, out);
  if (parsed.command == "help" || parsed.command == "--help") {
    out << kUsage;
    return 0;
  }
  throw CliError{"unknown command '" + parsed.command + "'"};
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    const ParsedArgs parsed = parse_args(args);
    if (parsed.trace_path.empty()) return dispatch(parsed, out);

    // Arm the trace for the whole command; the session must outlive every
    // instrumented scope (pools are created and joined inside the
    // commands, so this bracket satisfies the lifecycle rule). The file
    // is written even when the command fails (e.g. a budget abort) — a
    // partial schedule is exactly what one wants to look at then.
    telemetry::TraceSession session;
    session.set_meta("tool", "fpopt");
    session.set_meta("command", parsed.command);
    session.set_meta("threads", std::to_string(parsed.options.threads));
    telemetry::trace_thread_name("main");
    const auto write_trace = [&] {
      std::ofstream file(parsed.trace_path, std::ios::binary);
      if (!file) throw CliError{"cannot write '" + parsed.trace_path + "'"};
      file << session.to_json();
    };
    try {
      const int code = dispatch(parsed, out);
      write_trace();
      return code;
    } catch (...) {
      write_trace();
      throw;
    }
  } catch (const CliError& e) {
    err << "fpopt: " << e.message << '\n' << kUsage;
    return 2;
  } catch (const ParseError& e) {
    err << "fpopt: parse error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << "fpopt: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace fpopt
