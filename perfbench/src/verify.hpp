// Response verification.
//
// Warm-up responses are checked from first principles: status ok, the
// expected cache outcome, cost within budget, and a sched::evaluate
// recomputation matching the shipped MED and cost bit for bit. They then
// become the references the timed responses are compared with: an
// exact_hits response must equal its warm-up hit frame byte for byte
// (bar the request id), a shared_problems response must carry its
// reference schedule, MED, cost and iteration count, and every
// fresh_solves response is checked from first principles like a warm-up.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pool.hpp"
#include "service/request.hpp"

namespace perfbench {

class Verifier {
public:
  explicit Verifier(const Pool& pool);

  /// Checks a warm-up response from first principles and keeps it as
  /// the reference of the request's template. `frame` is the whole
  /// response frame. Returns "" when it passes, otherwise what failed.
  [[nodiscard]] std::string warm(const Request& request,
                                 std::string_view frame);
  /// Keeps `frame` (a fast-path hit) as the byte-exact reference of
  /// `tmpl`; it must carry the template's reference result.
  [[nodiscard]] std::string warm_hit(std::uint32_t tmpl,
                                     std::string_view frame);

  /// Checks one timed response; returns "" when it passes.
  [[nodiscard]] std::string check(const Request& request,
                                  std::string_view frame) const;

private:
  struct Reference {
    bool set = false;
    medcc::service::SchedulingResponse response;
    std::string hit_frame;  ///< id bytes zeroed; exact_hits only
  };

  [[nodiscard]] std::string check_from_scratch(
      const Request& request,
      const medcc::service::SchedulingResponse& response) const;

  const Pool& pool_;
  std::vector<Reference> refs_;
};

/// Decodes a solve_response frame (header included).
[[nodiscard]] medcc::service::SchedulingResponse decode_response_frame(
    std::string_view frame);

/// Re-solves `request` in-process through the built-in SolverRegistry
/// and compares the server's `frame` with the encoding of that result,
/// byte for byte (the timing fields are taken from the server's frame,
/// the only bytes a solve does not determine). Returns "" on a match.
[[nodiscard]] std::string compare_with_direct_solve(const Pool& pool,
                                                    const Request& request,
                                                    std::string_view frame);

}  // namespace perfbench
