#include "verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "net/codec.hpp"
#include "sched/schedule.hpp"
#include "sched/solver_registry.hpp"

namespace perfbench {

namespace {

using medcc::service::CacheOutcome;
using medcc::service::SchedulingResponse;

constexpr std::size_t kIdOffset = 8;

CacheOutcome expected_outcome(Expect expect) {
  switch (expect) {
    case Expect::solve: return CacheOutcome::miss;
    case Expect::hit_exact: return CacheOutcome::hit_exact;
    case Expect::hit_iso: return CacheOutcome::hit_isomorphic;
  }
  return CacheOutcome::bypass;
}

bool same_result(const SchedulingResponse& a, const SchedulingResponse& b) {
  return a.result.schedule == b.result.schedule &&
         a.result.eval.med == b.result.eval.med &&
         a.result.eval.cost == b.result.eval.cost &&
         a.result.iterations == b.result.iterations && a.solver == b.solver;
}

/// The frame without its request id (bytes 8..15 of the header).
bool equal_but_id(std::string_view a, std::string_view b) {
  return a.size() == b.size() && a.size() >= medcc::net::kHeaderSize &&
         std::memcmp(a.data(), b.data(), kIdOffset) == 0 &&
         std::memcmp(a.data() + kIdOffset + 8, b.data() + kIdOffset + 8,
                     a.size() - kIdOffset - 8) == 0;
}

}  // namespace

SchedulingResponse decode_response_frame(std::string_view frame) {
  const auto header = medcc::net::parse_frame_header(frame);
  if (!header || header->type != medcc::net::FrameType::solve_response)
    throw medcc::net::CodecError(medcc::net::WireError::unexpected_frame,
                                 "not a solve_response frame");
  return medcc::net::decode_solve_response(
      frame.substr(medcc::net::kHeaderSize, header->body_size));
}

Verifier::Verifier(const Pool& pool)
    : pool_(pool), refs_(pool.templates.size()) {}

std::string Verifier::check_from_scratch(
    const Request& request, const SchedulingResponse& response) const {
  const Template& t = pool_.templates[request.tmpl];
  if (!response.ok())
    return std::string("status ") + medcc::service::to_string(response.status) +
           " (" + medcc::service::to_string(response.reject_reason) + ") " +
           response.error;
  if (response.cache != expected_outcome(t.expect))
    return std::string("cache outcome ") +
           medcc::service::to_string(response.cache);
  if (response.solver != t.solver) return "solver " + response.solver;
  const auto& schedule = response.result.schedule;
  if (schedule.type_of.size() != t.instance->module_count() ||
      std::any_of(schedule.type_of.begin(), schedule.type_of.end(),
                  [&](std::size_t j) { return j >= t.instance->type_count(); }))
    return "malformed schedule";
  const auto eval = medcc::sched::evaluate(*t.instance, schedule);
  if (eval.med != response.result.eval.med ||
      eval.cost != response.result.eval.cost)
    return "evaluate() disagrees with the shipped MED/cost";
  const double budget = pool_.budget(request);
  if (!(eval.cost <= budget + 1e-9 * std::max(1.0, std::abs(budget))))
    return "cost over budget";
  return {};
}

std::string Verifier::warm(const Request& request, std::string_view frame) {
  SchedulingResponse response;
  try {
    response = decode_response_frame(frame);
  } catch (const std::exception& e) {
    return e.what();
  }
  std::string error = check_from_scratch(request, response);
  if (!error.empty()) return error;
  Reference& ref = refs_[request.tmpl];
  ref.set = true;
  ref.response = std::move(response);
  return {};
}

std::string Verifier::warm_hit(std::uint32_t tmpl, std::string_view frame) {
  Reference& ref = refs_[tmpl];
  if (!ref.set) return "hit reference before warm-up";
  SchedulingResponse response;
  try {
    response = decode_response_frame(frame);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (!response.ok() || response.cache != CacheOutcome::hit_exact ||
      !same_result(response, ref.response))
    return "warm-up hit differs from the solved result";
  ref.hit_frame.assign(frame);
  std::fill_n(ref.hit_frame.begin() + kIdOffset, 8, '\0');
  return {};
}

std::string Verifier::check(const Request& request,
                            std::string_view frame) const {
  const Template& t = pool_.templates[request.tmpl];
  const Reference& ref = refs_[t.ref];
  if (pool_.workload == Workload::exact_hits) {
    if (ref.hit_frame.empty()) return "no warm-up hit to compare with";
    return equal_but_id(frame, ref.hit_frame)
               ? std::string()
               : "hit not byte-identical to its warm-up response";
  }
  SchedulingResponse response;
  try {
    response = decode_response_frame(frame);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (t.expect == Expect::solve) return check_from_scratch(request, response);
  if (!ref.set) return "no warm-up reference";
  if (!response.ok()) return "status not ok";
  if (response.cache != expected_outcome(t.expect))
    return std::string("cache outcome ") +
           medcc::service::to_string(response.cache);
  return same_result(response, ref.response)
             ? std::string()
             : "hit differs from its warm-up response";
}

std::string compare_with_direct_solve(const Pool& pool, const Request& request,
                                      std::string_view frame) {
  const Template& t = pool.templates[request.tmpl];
  SchedulingResponse served;
  std::uint64_t id = 0;
  try {
    served = decode_response_frame(frame);
    id = medcc::net::parse_frame_header(frame)->request_id;
  } catch (const std::exception& e) {
    return e.what();
  }
  const auto* solver =
      medcc::sched::SolverRegistry::built_in().find(t.solver);
  if (solver == nullptr) return "unknown solver " + t.solver;
  SchedulingResponse direct;
  direct.status = medcc::service::ResponseStatus::ok;
  direct.result = (*solver)(*t.instance, pool.budget(request));
  direct.cache = CacheOutcome::miss;
  direct.solver = t.solver;
  direct.queue_delay_ms = served.queue_delay_ms;
  direct.solve_ms = served.solve_ms;
  return medcc::net::encode_solve_response(direct, id) == frame
             ? std::string()
             : "served bytes differ from an in-process solve";
}

}  // namespace perfbench
