// Memory instrumentation for the optimizer (the paper's M column).
//
// The paper measures M = the maximum number of implementations ever stored
// in memory during the computation, and notes that M drops when selection
// eliminates implementations. We track two quantities:
//  * stored: implementations retained in node lists (children stay live
//    until the end for traceback, exactly as in [9]); the peak of this is
//    the paper's M.
//  * transient: candidate buffers alive inside a combine step.
// A configurable budget on stored + transient simulates the SPARC's
// memory exhaustion: exceeding it aborts the run the way [9] aborted,
// which is how the "-" rows of Tables 3 and 4 are reproduced.
#pragma once

#include <algorithm>
#include <cstddef>

#include "geometry/types.h"

namespace fpopt {

/// Thrown (internally) when the simulated memory budget is exceeded; the
/// optimizer converts it into OptimizeOutcome::out_of_memory.
struct MemoryLimitExceeded {
  std::size_t stored;
  std::size_t transient;
};

struct OptimizerStats {
  std::size_t peak_stored = 0;      ///< the paper's M
  std::size_t final_stored = 0;     ///< retained at the end of the run
  std::size_t peak_transient = 0;   ///< largest candidate buffer
  /// Peak of stored + transient — the quantity the impl_budget check is
  /// applied to. It is the *serial schedule's* peak, folded from per-node
  /// profiles (see optimizer.cpp), so it is identical for every thread
  /// count.
  std::size_t peak_live = 0;
  std::size_t total_generated = 0;  ///< candidates ever emitted
  std::size_t nodes_evaluated = 0;  ///< tree nodes combined this run
  std::size_t r_selection_calls = 0;
  std::size_t l_selection_calls = 0;
  std::size_t r_selected_away = 0;  ///< implementations removed by R_Selection
  std::size_t l_selected_away = 0;  ///< implementations removed by L_Selection
  /// Interval-CSPP invocations across R- and L-selection, and how many of
  /// them ran through the Monge divide-and-conquer evaluator.
  std::size_t cspp_calls = 0;
  std::size_t cspp_monge_calls = 0;
  /// Section-5 heuristic pre-reductions applied ahead of L_Selection.
  std::size_t l_heuristic_prereductions = 0;
  /// Longest R-list / L-list-set seen entering a selection step (max-folded
  /// across nodes, identical for every thread count).
  std::size_t max_rlist_len = 0;
  std::size_t max_llist_len = 0;
  Weight r_selection_error = 0;     ///< total staircase area discarded
  Weight l_selection_error = 0;     ///< total Lp cost discarded
  double seconds = 0;               ///< wall-clock of the run
};

class BudgetTracker {
 public:
  /// budget == 0 means unlimited. `live_before` implementations are held
  /// elsewhere when the tracker starts (the optimizer passes what earlier
  /// nodes keep): they count against the budget, not towards stored() or
  /// the peaks.
  explicit BudgetTracker(std::size_t budget, std::size_t live_before = 0)
      : budget_(budget), live_before_(live_before) {}

  /// Both adders are exception-safe: a rejected add leaves the tracker
  /// unchanged (the optimizer aborts on the exception regardless, but
  /// callers that probe the budget can continue cleanly).
  void add_stored(std::size_t n) {
    check(n);
    stored_ += n;
    peak_stored_ = std::max(peak_stored_, stored_);
    peak_total_ = std::max(peak_total_, stored_ + transient_);
  }
  void sub_stored(std::size_t n) { stored_ -= n; }

  void add_transient(std::size_t n) {
    check(n);
    transient_ += n;
    peak_transient_ = std::max(peak_transient_, transient_);
    peak_total_ = std::max(peak_total_, stored_ + transient_);
  }
  void sub_transient(std::size_t n) { transient_ -= n; }

  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] std::size_t peak_stored() const { return peak_stored_; }
  [[nodiscard]] std::size_t peak_transient() const { return peak_transient_; }
  /// Peak of stored + transient (check() adds live_before to it).
  [[nodiscard]] std::size_t peak_total() const { return peak_total_; }

 private:
  void check(std::size_t incoming) const {
    if (budget_ != 0 && live_before_ + stored_ + transient_ + incoming > budget_) {
      throw MemoryLimitExceeded{stored_, transient_};
    }
  }

  std::size_t budget_;
  std::size_t live_before_;
  std::size_t stored_ = 0;
  std::size_t peak_stored_ = 0;
  std::size_t transient_ = 0;
  std::size_t peak_transient_ = 0;
  std::size_t peak_total_ = 0;
};

/// RAII guard for a candidate buffer's contribution to the budget.
class TransientScope {
 public:
  TransientScope(BudgetTracker& tracker) : tracker_(tracker) {}
  TransientScope(const TransientScope&) = delete;
  TransientScope& operator=(const TransientScope&) = delete;
  ~TransientScope() { tracker_.sub_transient(count_); }

  void add(std::size_t n) {
    count_ += n;
    tracker_.add_transient(n);
  }

  /// A compaction shrank the buffer to `n` elements.
  void reset_to(std::size_t n) {
    if (n < count_) {
      tracker_.sub_transient(count_ - n);
      count_ = n;
    }
  }

 private:
  BudgetTracker& tracker_;
  std::size_t count_ = 0;
};

}  // namespace fpopt
