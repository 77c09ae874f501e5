// A Mersenne Twister (MT19937-64) engine that is a drop-in replacement
// for std::mt19937_64: same parameters, same seeding, same output
// sequence, and the same textual serialization (312 state words followed
// by the stream position, space-separated) — so checkpoints written by
// either engine restore into the other bit-exactly
// (tests/numeric/mt19937_64_test.cc pins both properties against the
// standard library engine).
//
// What the standard engine cannot offer, and why this one exists:
//
//  * FillRaw(): bulk generation. The standard interface yields one word
//    per virtual-free but still call-shaped operator() invocation; the
//    simulation kernel consumes ~5 words per request per round, so the
//    per-call overhead is hot-path cost. FillRaw tempers straight out of
//    the state block into the caller's buffer in a flat loop the
//    compiler can vectorize.
//
//  * PeekRaw()/AdvanceRaw(): bounded lookahead with exact replay. The
//    speculative SIMD Gamma sampler (numeric/random_simd.h) is the one
//    caller: it peeks a window of 2n + 16 words for a batch of n draws,
//    at most kMaxPeek, evaluates rejection-sampling candidates on it
//    speculatively, and words past what the walk actually read must NOT
//    be consumed, or the sequence would diverge from the scalar sampler.
//    PeekRaw exposes the next k words without committing; AdvanceRaw
//    commits exactly the words the walk read, once per window. Lookahead
//    across the 312-word block boundary is served from a lazily twisted
//    shadow block, so peeking never perturbs the committed stream
//    position.
#ifndef ZONESTREAM_NUMERIC_MT19937_64_H_
#define ZONESTREAM_NUMERIC_MT19937_64_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace zonestream::numeric {

class Mt19937_64 {
 public:
  using result_type = uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed_value = default_seed) {
    seed(seed_value);
  }

  // Standard MT19937-64 state-array initialization.
  void seed(result_type seed_value);

  result_type operator()() {
    if (p_ >= kN) AdvanceBlock();
    return Temper(x_[p_++]);
  }

  // Fills out[0..n) with the next n raw words — identical to n
  // operator() calls, without the per-call overhead.
  void FillRaw(uint64_t* out, size_t n);

  // Writes the next k words of the sequence into out WITHOUT consuming
  // them: a subsequent operator()/FillRaw/PeekRaw sees the same words.
  // k must be at most kMaxPeek.
  void PeekRaw(uint64_t* out, size_t k);

  // Consumes k words (as if k operator() calls were made and their
  // results discarded). Pairs with PeekRaw: peek a window, use a prefix,
  // advance by exactly the words the prefix consumed. k <= kMaxPeek.
  void AdvanceRaw(size_t k);

  // Largest supported PeekRaw/AdvanceRaw window. One shadow block bounds
  // the lookahead to a full block.
  static constexpr size_t kMaxPeek = 312;

  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    if (a.p_ != b.p_) return false;
    for (size_t i = 0; i < kN; ++i) {
      if (a.x_[i] != b.x_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Mt19937_64& a, const Mt19937_64& b) {
    return !(a == b);
  }

  // Textual serialization in the exact format libstdc++ uses for
  // std::mt19937_64 (312 decimal words and the position, single-space
  // separated), so snapshots interchange between the two engines.
  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
  static constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ull;
  static constexpr uint64_t kLowerMask = 0x000000007FFFFFFFull;

  static uint64_t Temper(uint64_t y) {
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    y ^= y >> 43;
    return y;
  }

  // Moves to the next 312-word block: the shadow block if already
  // computed by a peek, else an in-place twist.
  void AdvanceBlock();

  // Computes the next block into next_ (without touching x_/p_).
  void EnsureNext();

  uint64_t x_[kN];      // current block (untempered)
  size_t p_ = kN;       // next output index into x_; kN = block exhausted
  uint64_t next_[kN];   // lazily twisted shadow block for lookahead
  bool has_next_ = false;
};

}  // namespace zonestream::numeric

#endif  // ZONESTREAM_NUMERIC_MT19937_64_H_
