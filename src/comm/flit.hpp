// Stream flits.
//
// Section III.B: the producer interface bit-extends each w-bit data word
// with the negated FIFO-empty flag as an extra MSB, so only valid words
// propagate through the switch boxes; the MSB becomes the consumer FIFO's
// write enable. Flit models the extended word: `data` is the w-bit payload,
// `valid` is the extension bit.
#pragma once

#include <cstdint>

namespace vapres::comm {

/// One stream data word (payload of up to 32 bits).
using Word = std::uint32_t;

/// Mask selecting the payload bits of a w-bit channel (w = 1..32).
constexpr Word payload_mask(int width_bits) {
  return width_bits >= 32 ? 0xFFFFFFFFu
                          : ((Word{1} << width_bits) - 1u);
}

/// The distinguished end-of-stream word of the switching methodology
/// (Figure 5, step 5): all-ones at the channel width. In-band by design,
/// as in the paper — an application data word of all ones is
/// indistinguishable from EOS.
constexpr Word eos_word(int width_bits) { return payload_mask(width_bits); }

/// The 32-bit EOS word modules emit; narrower channels truncate it to
/// their own eos_word() in the producer interface.
inline constexpr Word kEndOfStreamWord = 0xFFFFFFFFu;

struct Flit {
  Word data = 0;
  bool valid = false;

  friend constexpr bool operator==(const Flit&, const Flit&) = default;
};

/// Snapshot fields (snap/format.hpp).
template <class Ar>
void visit(Ar& ar, Flit& f) {
  ar(f.data, f.valid);
}

inline constexpr Flit kIdleFlit{};

}  // namespace vapres::comm
