// Record-payload primitives for the persistence subsystem: the byte
// codec the network codec also uses (util/byte_codec.hpp), with a fail
// policy that throws PersistError. Decoding never exhibits UB; every
// truncation, oversized prefix or trailing byte is a PersistError.
#pragma once

#include <string>

#include "util/byte_codec.hpp"
#include "util/error.hpp"

namespace medcc::persist {

/// Malformed persisted bytes (or a filesystem-level persistence
/// failure); decoding never exhibits UB, it throws this.
class PersistError : public Error {
public:
  explicit PersistError(const std::string& what) : Error(what) {}
};

/// The byte codec's fail policy for persisted records.
struct PersistFail {
  [[noreturn]] static void fail(util::ByteFault, const std::string& what) {
    throw PersistError("persist: " + what);
  }
};

/// Append-only little-endian encoder.
using Writer = util::ByteWriter;
/// Bounds-checked little-endian decoder; every failure throws
/// PersistError.
using Reader = util::ByteReader<PersistFail>;

}  // namespace medcc::persist
