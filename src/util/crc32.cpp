#include "util/crc32.hpp"

#include <array>
#include <cstring>

#include "util/byte_codec.hpp"

namespace medcc::util {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups fold one 8-byte word at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    word = detail::to_le(word) ^ crc;
    crc = 0;
    for (std::size_t k = 0; k < 8; ++k)
      crc ^= kTables[7 - k][(word >> (8 * k)) & 0xFFu];
  }
  for (; n > 0; --n, ++p) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

}  // namespace medcc::util
