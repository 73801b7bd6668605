// fpopt_audit: run the optimizer on a floorplan and audit every artifact
// with the src/check/ validators (see check/audit.h).
//
// Usage:
//   fpopt_audit --fp N [--case M] [options]      paper floorplan FP1..FP4
//   fpopt_audit <topology-file> <library-file> [options]
//
// Options:
//   --n N        implementations per module for --fp (default 8)
//   --seed S     module-set seed for --fp (default 1)
//   --k1 N --k2 N --theta X --scap N   selection knobs (default exact)
//   --budget N   simulated memory budget in implementations (default 0 = unlimited)
//   --threads N  pool workers, at most 256 (default 0 = no pool, postorder loop)
//   --metric l1|l2|linf                (default l1)
//   --pruning perchain|node|eager      L pruning mode (default node, i.e. [9])
//   --trace N    root implementations traced to placements (default 16)
//   --trace=F    write a Chrome trace-event JSON of the run to F (the
//                equals form disambiguates from --trace N; docs §10)
//   --certs N    selection certificates re-derived per kind (default 4)
//   --incremental  audit the incremental mode instead: scratch vs cold-
//                  vs warm-cache runs must produce byte-equal artifacts
//   --stats        print the run-report table after the audit
//   --stats-json F write the JSON run report to F (docs/ALGORITHMS.md §9)
//   --dump-workload P  write the floorplan as P.topo + P.lib (the fpopt
//                      CLI file format) and exit; pairs --fp workloads
//                      with file-driven tools
//
// Exit codes: 0 all checks passed, 1 violations found, 2 usage/input error,
// 3 the run exceeded the memory budget (no verdict).
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.h"
#include "floorplan/serialize.h"
#include "io/run_report_build.h"
#include "telemetry/run_report.h"
#include "telemetry/trace.h"
#include "workload/floorplans.h"

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

long long parse_int(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(value, &used);
    if (used != value.size() || parsed < 0) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw UsageError(flag + " needs a non-negative integer, got '" + value + "'");
  }
}

struct Cli {
  int fp = 0;           // 0 = file mode
  int case_number = 0;  // 0 = use --n/--seed instead of a paper case
  std::string topology_path;
  std::string library_path;
  fpopt::WorkloadConfig workload{.impls_per_module = 8};
  fpopt::AuditOptions audit;
  bool incremental = false;
  bool show_stats = false;
  std::string stats_json_path;
  std::string trace_json_path;    // --trace=F
  std::string dump_workload_path;  // --dump-workload P -> P.topo + P.lib
};

Cli parse_args(const std::vector<std::string>& args) {
  Cli cli;
  cli.audit.optimizer.impl_budget = 0;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      positional.push_back(a);
      continue;
    }
    const auto need_value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError(a + " needs a value");
      return args[++i];
    };
    fpopt::SelectionConfig& sel = cli.audit.optimizer.selection;
    if (a == "--fp") {
      cli.fp = static_cast<int>(parse_int(a, need_value()));
      if (cli.fp < 1 || cli.fp > 4) throw UsageError("--fp must be 1..4");
    } else if (a == "--case") {
      cli.case_number = static_cast<int>(parse_int(a, need_value()));
      if (cli.case_number < 1 || cli.case_number > 4) throw UsageError("--case must be 1..4");
    } else if (a == "--n") {
      cli.workload.impls_per_module = static_cast<std::size_t>(parse_int(a, need_value()));
      if (cli.workload.impls_per_module == 0) throw UsageError("--n must be positive");
    } else if (a == "--seed") {
      cli.workload.seed = static_cast<std::uint64_t>(parse_int(a, need_value()));
    } else if (a == "--k1") {
      sel.k1 = static_cast<std::size_t>(parse_int(a, need_value()));
      if (sel.k1 == 1) throw UsageError("--k1 must be 0 or at least 2");
    } else if (a == "--k2") {
      sel.k2 = static_cast<std::size_t>(parse_int(a, need_value()));
    } else if (a == "--theta") {
      const std::string& v = need_value();
      try {
        std::size_t used = 0;
        sel.theta = std::stod(v, &used);
        // Reject trailing garbage ("0.5xyz"), like parse_int does, and
        // "nan"/"inf", which the range check below cannot catch.
        if (used != v.size() || !std::isfinite(sel.theta)) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        throw UsageError("--theta needs a number, got '" + v + "'");
      }
      if (sel.theta <= 0 || sel.theta > 1) throw UsageError("--theta must be in (0, 1]");
    } else if (a == "--scap") {
      sel.heuristic_cap = static_cast<std::size_t>(parse_int(a, need_value()));
    } else if (a == "--budget") {
      cli.audit.optimizer.impl_budget = static_cast<std::size_t>(parse_int(a, need_value()));
    } else if (a == "--threads") {
      cli.audit.optimizer.threads = static_cast<std::size_t>(parse_int(a, need_value()));
      if (cli.audit.optimizer.threads > fpopt::OptimizerOptions::kMaxThreads) {
        throw UsageError("--threads must be at most " +
                         std::to_string(fpopt::OptimizerOptions::kMaxThreads));
      }
    } else if (a == "--metric") {
      const std::string& m = need_value();
      if (m == "l1") {
        sel.metric = fpopt::LpMetric::L1;
      } else if (m == "l2") {
        sel.metric = fpopt::LpMetric::L2;
      } else if (m == "linf") {
        sel.metric = fpopt::LpMetric::LInf;
      } else {
        throw UsageError("--metric must be l1, l2 or linf");
      }
    } else if (a == "--pruning") {
      const std::string& p = need_value();
      if (p == "perchain") {
        cli.audit.optimizer.l_pruning = fpopt::LPruning::PerChain;
      } else if (p == "node") {
        cli.audit.optimizer.l_pruning = fpopt::LPruning::GlobalAtNode;
      } else if (p == "eager") {
        cli.audit.optimizer.l_pruning = fpopt::LPruning::GlobalEager;
      } else {
        throw UsageError("--pruning must be perchain, node or eager");
      }
    } else if (a == "--trace") {
      cli.audit.max_traced_placements = static_cast<std::size_t>(parse_int(a, need_value()));
    } else if (a.rfind("--trace=", 0) == 0) {
      cli.trace_json_path = a.substr(8);
      if (cli.trace_json_path.empty()) throw UsageError("--trace= needs a file name");
    } else if (a == "--dump-workload") {
      cli.dump_workload_path = need_value();
    } else if (a == "--certs") {
      cli.audit.certificate_samples = static_cast<std::size_t>(parse_int(a, need_value()));
    } else if (a == "--incremental") {
      cli.incremental = true;
    } else if (a == "--stats") {
      cli.show_stats = true;
    } else if (a == "--stats-json") {
      cli.stats_json_path = need_value();
    } else {
      throw UsageError("unknown flag " + a);
    }
  }

  if (cli.fp == 0) {
    if (positional.size() != 2) {
      throw UsageError("expected --fp N or <topology-file> <library-file>");
    }
    cli.topology_path = positional[0];
    cli.library_path = positional[1];
  } else if (!positional.empty()) {
    throw UsageError("--fp and positional files are mutually exclusive");
  }
  return cli;
}

void emit_report(const fpopt::telemetry::RunReport& report, const Cli& cli) {
  if (!cli.stats_json_path.empty()) {
    std::ofstream file(cli.stats_json_path, std::ios::binary);
    if (!file) throw UsageError("cannot write " + cli.stats_json_path);
    file << report.to_json(true);
  }
  if (cli.show_stats) std::cout << report.to_table();
}

void report_config(fpopt::telemetry::RunReport& report, const Cli& cli) {
  const fpopt::SelectionConfig& sel = cli.audit.optimizer.selection;
  report.add_config("k1", std::to_string(sel.k1));
  report.add_config("k2", std::to_string(sel.k2));
  report.add_config("budget", std::to_string(cli.audit.optimizer.impl_budget));
  report.add_config("threads", std::to_string(cli.audit.optimizer.threads));
}

fpopt::FloorplanTree build_tree(const Cli& cli) {
  if (cli.fp == 0) {
    return fpopt::parse_floorplan(read_file(cli.topology_path),
                                  fpopt::parse_module_library(read_file(cli.library_path)));
  }
  if (cli.case_number != 0) return fpopt::make_paper_floorplan(cli.fp, cli.case_number);
  switch (cli.fp) {
    case 1: return fpopt::make_fp1(cli.workload);
    case 2: return fpopt::make_fp2(cli.workload);
    case 3: return fpopt::make_fp3(cli.workload);
    default: return fpopt::make_fp4(cli.workload);
  }
}

/// Write the workload in the fpopt CLI file format so file-driven tools
/// (fpopt --trace, golden corpora) can run the exact same floorplan.
int dump_workload(const Cli& cli, const fpopt::FloorplanTree& tree) {
  const std::string topo_path = cli.dump_workload_path + ".topo";
  const std::string lib_path = cli.dump_workload_path + ".lib";
  std::ofstream topo(topo_path, std::ios::binary);
  std::ofstream lib(lib_path, std::ios::binary);
  if (!topo || !lib) {
    std::cerr << "fpopt_audit: cannot write " << topo_path << " / " << lib_path << '\n';
    return 2;
  }
  topo << fpopt::to_topology_string(tree) << '\n';
  lib << fpopt::to_module_library_string(tree.modules());
  std::cout << "wrote " << topo_path << " and " << lib_path << '\n';
  return 0;
}

int run_audit(const Cli& cli, const fpopt::FloorplanTree& tree) {
  if (cli.incremental) {
    const fpopt::IncrementalAuditReport report = fpopt::audit_incremental(tree, cli.audit);
    if (cli.show_stats || !cli.stats_json_path.empty()) {
      fpopt::telemetry::RunReport run_report("fpopt_audit", "audit-incremental");
      report_config(run_report, cli);
      run_report.set_aborted(report.out_of_memory);
      // The warm run is the one the incremental contract is about: every
      // internal node should be served from cache.
      fpopt::report_cache(run_report, report.warm_stats);
      emit_report(run_report, cli);
    }
    std::cout << "modules:            " << tree.module_count() << '\n'
              << "scratch verdict:    " << (report.out_of_memory ? "out-of-memory" : "ok")
              << '\n'
              << "cold cache:         " << report.cold_stats.hits << '/'
              << report.cold_stats.probes() << " hits, " << report.cold_stats.insertions
              << " inserted\n"
              << "warm cache:         " << report.warm_stats.hits << '/'
              << report.warm_stats.probes() << " hits\n";
    if (!report.ok()) {
      std::cout << '\n' << report.checks.report() << "\nFAIL: " << report.checks.size()
                << " violation(s)\n";
      return 1;
    }
    std::cout << "\nPASS: incremental runs byte-equal the scratch run\n";
    return 0;
  }

  const fpopt::AuditReport report = fpopt::audit_optimize(tree, cli.audit);
  if (cli.show_stats || !cli.stats_json_path.empty()) {
    fpopt::telemetry::RunReport run_report("fpopt_audit", "audit");
    report_config(run_report, cli);
    fpopt::OptimizeOutcome shim;
    shim.out_of_memory = report.out_of_memory;
    shim.stats = report.stats;
    fpopt::report_optimizer(run_report, shim);
    emit_report(run_report, cli);
  }
  if (report.out_of_memory) {
    std::cout << "OUT-OF-MEMORY: the run exceeded the budget of "
              << cli.audit.optimizer.impl_budget
              << " implementations (peak stored " << report.stats.peak_stored
              << ", peak transient " << report.stats.peak_transient << "); no verdict\n";
    return 3;
  }

  std::cout << "modules:            " << tree.module_count() << '\n'
            << "nodes checked:      " << report.nodes_checked << '\n'
            << "root impls:         " << report.root_impls << '\n'
            << "best area:          " << report.best_area << '\n'
            << "placements checked: " << report.placements_checked << '\n'
            << "certificates:       " << report.certificates_checked << '\n'
            << "generated impls:    " << report.stats.total_generated << '\n'
            << "peak stored:        " << report.stats.peak_stored << '\n';

  if (!report.ok()) {
    std::cout << '\n' << report.checks.report() << "\nFAIL: " << report.checks.size()
              << " violation(s)\n";
    return 1;
  }
  std::cout << "\nPASS: no violations\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Cli cli;
  fpopt::FloorplanTree tree;
  try {
    cli = parse_args(args);
    tree = build_tree(cli);
  } catch (const UsageError& e) {
    std::cerr << "fpopt_audit: " << e.what() << '\n';
    return 2;
  } catch (const fpopt::ParseError& e) {
    std::cerr << "fpopt_audit: parse error: " << e.what() << '\n';
    return 2;
  }

  if (!cli.dump_workload_path.empty()) return dump_workload(cli, tree);
  if (cli.trace_json_path.empty()) return run_audit(cli, tree);

  // Arm the trace around the whole audit (pools are created and joined
  // inside, satisfying the session lifecycle rule). Note an audit runs
  // the optimizer several times, so node ids repeat across runs — fine
  // for `fpopt_trace check|top|diff`, rejected by `critpath` (which
  // needs the single-run traces `fpopt --trace` produces).
  fpopt::telemetry::TraceSession session;
  session.set_meta("tool", "fpopt_audit");
  session.set_meta("command", cli.incremental ? "audit-incremental" : "audit");
  session.set_meta("threads", std::to_string(cli.audit.optimizer.threads));
  fpopt::telemetry::trace_thread_name("main");
  const int code = run_audit(cli, tree);
  std::ofstream file(cli.trace_json_path, std::ios::binary);
  if (!file) {
    std::cerr << "fpopt_audit: cannot write " << cli.trace_json_path << '\n';
    return 2;
  }
  file << session.to_json();
  return code;
}
