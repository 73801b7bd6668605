#include "optimize/artifact_dump.h"

#include <ios>
#include <sstream>

#include "optimize/placement.h"

namespace fpopt {

std::string dump_artifacts(const OptimizeOutcome& outcome) {
  std::ostringstream s;
  s << std::hexfloat;
  s << "best_area=" << outcome.best_area << "\nroot:";
  for (const RectImpl& r : outcome.root) s << ' ' << r.w << 'x' << r.h;
  s << '\n';
  const OptimizeArtifacts& art = *outcome.artifacts;
  for (std::size_t id = 0; id < art.nodes.size(); ++id) {
    const NodeResult& res = *art.nodes[id];
    s << "node " << id << (res.is_l ? " L\n" : " R\n");
    if (!res.is_l) {
      for (std::size_t i = 0; i < res.rlist.size(); ++i) {
        s << "  " << res.rlist[i].w << 'x' << res.rlist[i].h << " prov "
          << res.rprov[i].left << ',' << res.rprov[i].right << '\n';
      }
    } else {
      for (const LList& list : res.lset.lists()) {
        s << "  chain:";
        for (const LEntry& e : list) {
          s << " [" << e.shape.w1 << ',' << e.shape.w2 << ',' << e.shape.h1 << ','
            << e.shape.h2 << "#" << e.id << " prov " << res.lprov[e.id].left << ','
            << res.lprov[e.id].right << ']';
        }
        s << '\n';
      }
    }
  }
  return s.str();
}

std::string dump_stats(const OptimizerStats& st) {
  std::ostringstream s;
  s << std::hexfloat;
  s << "peak_stored=" << st.peak_stored << " final_stored=" << st.final_stored
    << " peak_transient=" << st.peak_transient << " peak_live=" << st.peak_live
    << " generated=" << st.total_generated << " rsel=" << st.r_selection_calls << '/'
    << st.r_selected_away << '/' << st.r_selection_error << " lsel=" << st.l_selection_calls
    << '/' << st.l_selected_away << '/' << st.l_selection_error << '\n';
  return s.str();
}

std::string dump_placement(const FloorplanTree& tree, const OptimizeOutcome& outcome) {
  const Placement p = trace_placement(tree, outcome, outcome.root.min_area_index());
  std::ostringstream s;
  s << "chip " << p.width << 'x' << p.height << '\n';
  for (const ModulePlacement& m : p.rooms) {
    s << m.module_id << ": room " << m.room.x << ',' << m.room.y << ',' << m.room.w << ','
      << m.room.h << " impl " << m.impl.w << 'x' << m.impl.h << '\n';
  }
  return s.str();
}

std::string dump_outcome(const FloorplanTree& tree, const OptimizeOutcome& outcome) {
  if (outcome.out_of_memory) return "out_of_memory\n";
  return dump_artifacts(outcome) + dump_stats(outcome.stats) + dump_placement(tree, outcome);
}

}  // namespace fpopt
