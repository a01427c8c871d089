#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "dag/cpm_kernel.hpp"

namespace medcc::sched {

std::vector<double> durations(const Instance& inst, const Schedule& schedule) {
  const std::size_t m = inst.module_count();
  MEDCC_EXPECTS(schedule.type_of.size() == m);
  std::vector<double> d(m);
  for (NodeId i = 0; i < m; ++i) {
    MEDCC_EXPECTS(schedule.type_of[i] < inst.type_count());
    d[i] = inst.time(i, schedule.type_of[i]);
  }
  return d;
}

bool fits(const Instance& inst, const Schedule& schedule) {
  return schedule.type_of.size() == inst.module_count() &&
         std::all_of(schedule.type_of.begin(), schedule.type_of.end(),
                     [&](std::size_t t) { return t < inst.type_count(); });
}

Evaluation evaluate(const Instance& inst, const Schedule& schedule) {
  const std::size_t m = inst.module_count();
  MEDCC_EXPECTS(schedule.type_of.size() == m);
  // Kernel path: the instance's frozen FlatDag (validated topo order, edge
  // times inlined) plus a per-thread workspace make repeated evaluations
  // cheap; export_result materialises a CpmResult bit-identical to the
  // legacy dag::compute_cpm (differentially tested).
  static thread_local dag::CpmWorkspace ws;
  const dag::FlatDag& flat = inst.flat_dag();
  ws.prepare(flat.node_count());
  for (NodeId i = 0; i < m; ++i) {
    MEDCC_EXPECTS(schedule.type_of[i] < inst.type_count());
    ws.weights[i] = inst.time(i, schedule.type_of[i]);
  }
  Evaluation eval;
  dag::cpm_into(flat, ws);
  eval.cpm = dag::export_result(flat, ws);
  eval.med = eval.cpm.makespan;
  eval.cost = total_cost(inst, schedule);
  return eval;
}

double total_cost(const Instance& inst, const Schedule& schedule) {
  MEDCC_EXPECTS(schedule.type_of.size() == inst.module_count());
  double cost = inst.total_transfer_cost();
  for (NodeId i = 0; i < inst.module_count(); ++i)
    cost += inst.cost(i, schedule.type_of[i]);
  return cost;
}

std::string to_string(const Instance& inst, const Schedule& schedule) {
  std::ostringstream os;
  bool first = true;
  for (NodeId i : inst.workflow().computing_modules()) {
    if (!first) os << ' ';
    first = false;
    os << inst.workflow().module(i).name << "->"
       << inst.catalog().type(schedule.type_of[i]).name;
  }
  return os.str();
}

}  // namespace medcc::sched
