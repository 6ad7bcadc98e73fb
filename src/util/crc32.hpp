// CRC32 (IEEE 802.3 polynomial, reflected) -- the integrity check shared by
// the message-passing runtime (per-message payload checksums), the DLSV
// service frames, the .dlel binary graph format's footer, and the checkpoint
// files. This is the only CRC implementation in the tree; there is no CRC32C
// variant and no CPU dispatch.
//
// The kernel is portable slice-by-8: eight constexpr 256-entry tables fold
// eight input bytes per step, so the loop-carried dependency is one table
// round per 8 bytes instead of one per byte. It computes the same IEEE value
// as the classic bytewise loop, so every stored footer and checkpoint stays
// byte-compatible. Input bytes are loaded one at a time (the compiler fuses
// them into word loads where that is legal), never through a cast word
// pointer, so unaligned payloads are well-defined.
//
// In the comm runtime the checksum never runs under a mailbox lock: the
// sender seals the payload before taking the destination mailbox's mutex,
// and the receiver verifies after dequeuing the stream head
// (comm/mailbox.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace dlouvain::util {

namespace detail {

/// kCrc32Tables[0] is the classic bytewise table; kCrc32Tables[k][b] is the
/// CRC contribution of byte b followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incremental CRC32. Feed bytes in any chunking; `value()` is the standard
/// (final-xor applied) checksum of everything fed so far.
class Crc32 {
 public:
  void update(const void* data, std::size_t size) noexcept {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; size >= 8; p += 8, size -= 8) {
      const std::uint32_t lo = c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                    std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    state_ = c;
  }

  void update(std::span<const std::byte> data) noexcept {
    update(data.data(), data.size());
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_{0xffffffffu};
};

/// One-shot CRC32 of a byte span.
inline std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

inline std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace dlouvain::util
