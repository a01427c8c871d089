// The little-endian byte codec shared by the wire protocol (src/net) and
// the persisted records (src/persist, src/service/persistence): LE
// integers, IEEE-754 doubles via their bit pattern, u32-length-prefixed
// strings. Both layers use this one implementation, so their byte
// formats are identical by construction.
//
// Each fixed-width field is one memcpy, and the reader does one bounds
// check per field. Decoding never exhibits UB: every failure goes to the
// reader's Fail policy, `[[noreturn]] static void fail(ByteFault, const
// std::string& what)`, which throws the owning module's own error type
// and code.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace medcc::util {

namespace detail {

/// `v` with its bytes in little-endian order.
template <typename T>
[[nodiscard]] constexpr T to_le(T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFFu));
    return out;
  }
}

}  // namespace detail

/// Append-only little-endian encoder.
class ByteWriter {
public:
  /// Starts with room for exactly `capacity` bytes.
  explicit ByteWriter(std::size_t capacity = 0) { out_.reserve(capacity); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// IEEE-754 bits via the u64 path: round-trips every double bit-exactly.
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  /// Raw bytes, no prefix.
  void raw(std::string_view s) { out_.append(s.data(), s.size()); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

private:
  template <typename T>
  void put(T v) {
    const T le = detail::to_le(v);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &le, sizeof(T));
    out_.append(bytes, sizeof(T));
  }

  std::string out_;
};

/// Counts the bytes a ByteWriter would produce for the same calls, so an
/// encoder written as a template over its sink can size its output
/// exactly before writing it.
class ByteSizer {
public:
  void u8(std::uint8_t) { size_ += 1; }
  void u16(std::uint16_t) { size_ += 2; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void f64(double) { size_ += 8; }
  void str(std::string_view s) { size_ += 4 + s.size(); }
  void raw(std::string_view s) { size_ += s.size(); }

  [[nodiscard]] std::size_t size() const { return size_; }

private:
  std::size_t size_ = 0;
};

/// What a ByteReader found wrong with its input.
enum class ByteFault : std::uint8_t {
  truncated,  ///< fewer bytes left than the next field needs
  too_long,   ///< a string longer than the caller's limit
  trailing,   ///< bytes left over after the message
  too_many,   ///< an element count the remaining bytes cannot hold
};

/// Bounds-checked little-endian decoder over a borrowed buffer; every
/// failure goes through `Fail::fail` (see the file comment).
template <typename Fail>
class ByteReader {
public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  /// Reads a length-prefixed string of at most `max_len` bytes.
  [[nodiscard]] std::string str(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len) fail(ByteFault::too_long, len, max_len);
    need(len);
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  /// Steps over `n` bytes (fails truncated when fewer remain).
  void skip(std::uint64_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  /// Fails (trailing) unless the buffer is exhausted.
  void expect_done() const {
    if (!done()) fail(ByteFault::trailing, remaining(), 0);
  }
  /// Fails (too_many) when `count` elements of at least `min_bytes_each`
  /// cannot possibly fit in the remaining bytes -- the guard that keeps
  /// hostile or corrupt counts from driving huge allocations.
  void expect_fits(std::uint64_t count, std::size_t min_bytes_each) const {
    if (count > remaining() / (min_bytes_each == 0 ? 1 : min_bytes_each))
      fail(ByteFault::too_many, count, remaining());
  }

private:
  void need(std::uint64_t n) const {
    if (remaining() < n) fail(ByteFault::truncated, n, remaining());
  }

  /// Builds the message out of line, so the inlined reads stay small.
  [[noreturn, gnu::noinline]] static void fail(ByteFault fault,
                                               std::uint64_t a,
                                               std::uint64_t b) {
    const std::string x = std::to_string(a);
    const std::string y = std::to_string(b);
    switch (fault) {
      case ByteFault::truncated:
        Fail::fail(fault, "truncated (need " + x + " bytes, have " + y + ")");
      case ByteFault::too_long:
        Fail::fail(fault, "string length " + x + " exceeds limit " + y);
      case ByteFault::trailing:
        Fail::fail(fault, x + " trailing bytes");
      case ByteFault::too_many:
        Fail::fail(fault, "element count " + x + " cannot fit in " + y +
                              " remaining bytes");
    }
    Fail::fail(fault, "malformed input");
  }

  template <typename T>
  [[nodiscard]] T get() {
    need(sizeof(T));
    T v = 0;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return detail::to_le(v);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace medcc::util
