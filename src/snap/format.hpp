// Versioned, byte-deterministic snapshot container.
//
// A snapshot is a flat byte blob: a fixed header (magic, format version,
// monotonic epoch) followed by named sections. Every section carries its
// payload length and an FNV-1a digest of the payload, so truncation and
// corruption are detected per section at open time rather than surfacing
// as garbled component state deep inside a restore. All integers are
// little-endian fixed-width; doubles travel as their IEEE-754 bit
// patterns — two snapshots of identical system state are byte-identical.
//
// Encoding runs at memory speed: the writer appends to one buffer, which
// its thread keeps from one writer to the next (each section's length and
// digest slot is reserved in place and patched), a fixed-width value is
// one memcpy of its native little-endian bytes, a vector or array of
// uint32_t/uint64_t is one memcpy, and the section digests are computed
// by section_digests(), which runs several FNV-1a chains in lockstep.
// finish() returns an exact-size copy, so a save neither grows nor
// re-zeroes a buffer once its thread has encoded a blob as large. The
// reader verifies through the same helper.
//
// SnapshotWriter builds sections in order; SnapshotReader indexes them by
// name and hands out bounded cursors. Both expose the same two-way field
// interface, so a stateful class lists its snapshot fields once:
//
//   template <class Ar> void visit(Ar& ar) { ar(count_, name_, words_); }
//
// and that one member writes (SnapshotWriter) or reads (SnapshotReader).
// `Ar::kReading` tells the two apart at compile time for the few restore
// steps that must run around the fields. Wire type per C++ type:
//
//   bool, every enum              u8 (enums range-checked on read)
//   uint32_t (words, ids)         u32
//   uint64_t, size_t, Cycles      u64
//   int, int64_t                  i64 (int range-checked on read)
//   double                        f64 bit pattern
//   std::string                   u32 length + bytes
//   vector, deque, map, multimap  u32 count + elements (map: key, value)
//   std::array<T, N>              N elements, no count
//   std::optional<T>              bool present + value (T{} when absent)
//   std::pair                     first, then second
//   class types                   their visit(ar) member, or a free
//                                 visit(ar, v) found by ADL
//
// A field that breaks the pattern keeps an explicit primitive call (the
// PRR perf select travels as u8). Enums are range-checked against an
// `enum_last(E)` found by ADL next to the enum.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace vapres::snap {

static_assert(std::endian::native == std::endian::little,
              "the snapshot wire format is little-endian and is encoded by "
              "copying native values");

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte range, continuing from `seed`.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds `v` into the FNV-1a digest `h` as eight little-endian bytes: the
/// fold behind the soak/fleet run digests, the StateDb journal and view
/// digests, and the health sampler digest.
inline void fold_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Folds a string as its u64 length, then its bytes.
inline void fold_str(std::uint64_t& h, const std::string& s) {
  fold_u64(h, s.size());
  h = fnv1a(s.data(), s.size(), h);
}

/// Appends `v` as eight little-endian bytes (the StateDb journal
/// encoding).
inline void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// FNV-1a chains the section digests run in lockstep: enough independent
/// multiplies to cover one multiply's latency.
inline constexpr std::size_t kDigestLanes = 4;

/// The FNV-1a digest of every payload, kDigestLanes chains at a time:
/// element i equals fnv1a(payloads[i].data(), payloads[i].size()). The
/// writer seals its sections with it and the reader verifies with it.
std::vector<std::uint64_t> section_digests(
    std::span<const std::string_view> payloads);

namespace detail {

template <class T>
struct Container : std::false_type {};
template <class T, class A>
struct Container<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct Container<std::deque<T, A>> : std::true_type {};

template <class T>
struct Map : std::false_type {};
template <class K, class V, class C, class A>
struct Map<std::map<K, V, C, A>> : std::true_type {};
template <class K, class V, class C, class A>
struct Map<std::multimap<K, V, C, A>> : std::true_type {};

template <class T>
struct Array : std::false_type {};
template <class T, std::size_t N>
struct Array<std::array<T, N>> : std::true_type {};

template <class T>
struct Optional : std::false_type {};
template <class T>
struct Optional<std::optional<T>> : std::true_type {};

template <class T>
struct Pair : std::false_type {};
template <class A, class B>
struct Pair<std::pair<A, B>> : std::true_type {};

/// Element types whose wire form is their in-memory form.
template <class T>
inline constexpr bool kBulkElement =
    std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>;

/// A vector or array of bulk elements: it travels as one memcpy.
template <class T>
struct Bulk : std::false_type {};
template <class T, class A>
struct Bulk<std::vector<T, A>> : std::bool_constant<kBulkElement<T>> {};
template <class T, std::size_t N>
struct Bulk<std::array<T, N>> : std::bool_constant<kBulkElement<T>> {};

}  // namespace detail

class SnapshotWriter {
 public:
  static constexpr std::uint32_t kMagic = 0x56534E50;  // "VSNP"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr bool kReading = false;

  /// `epoch` is the caller-maintained monotonic snapshot counter; a
  /// restored system's next checkpoint must use a strictly larger epoch.
  explicit SnapshotWriter(std::uint64_t epoch);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Opens a named section; primitives append to it until end_section().
  void begin_section(const std::string& name);
  void end_section();
  /// begin_section(name), body(), end_section().
  template <class F>
  void section(const std::string& name, F&& body) {
    begin_section(name);
    body();
    end_section();
  }

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// Two-way field interface: writes each argument under its wire type.
  template <class... T>
  void operator()(const T&... v) {
    (field(v), ...);
  }
  /// Two-way check: writes `value`; the reader requires it back equal.
  template <class T>
  void check(const T& value, const char* /*what*/) {
    field(value);
  }
  /// Two-way count check: writes `n` as u32; the reader requires it equal.
  void count(std::size_t n, const char* what) {
    check(static_cast<std::uint32_t>(n), what);
  }

  template <class T>
  void field(const T& v);

  std::uint64_t epoch() const { return epoch_; }

  /// Finalizes the blob and returns a copy of exactly its bytes. The
  /// writer must not be reused afterwards.
  std::string finish();

 private:
  /// Advances the write position by `n` bytes and returns where they go.
  char* grow(std::size_t n) {
    VAPRES_REQUIRE(in_section_, "snapshot write outside a section");
    if (blob_.size() - size_ < n) expand(n);
    char* at = blob_.data() + size_;
    size_ += n;
    return at;
  }
  void expand(std::size_t n);
  template <class T>
  void put(T v) {
    std::memcpy(grow(sizeof v), &v, sizeof v);
  }
  void bytes(const void* data, std::size_t n) {
    char* at = grow(n);
    if (n != 0) std::memcpy(at, data, n);
  }

  std::uint64_t epoch_;
  /// This thread's encode buffer, lent for the writer's lifetime. The
  /// blob so far is blob_[0, size_); blob_ beyond it is spare room, which
  /// may still hold an earlier blob's bytes.
  std::string blob_;
  std::size_t size_ = 0;
  /// Payload start of every section; each payload's u64 length and u64
  /// digest sit in the 16 bytes before it.
  std::vector<std::size_t> payload_starts_;
  bool in_section_ = false;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  static constexpr bool kReading = true;

  /// Parses and validates the header and the section index. Throws
  /// vapres::ModelError on bad magic, unsupported version, truncation,
  /// or a section whose digest does not match its payload.
  explicit SnapshotReader(std::string blob);

  std::uint64_t epoch() const { return epoch_; }

  bool has_section(const std::string& name) const;
  std::vector<std::string> section_names() const;

  /// Positions the cursor at the start of `name`'s payload. Throws if
  /// the section is absent.
  void open_section(const std::string& name) const;
  /// Throws unless the open section was read to its last byte: bytes a
  /// visit left unread mean the blob's schema drifted from the reader's.
  void close_section() const;
  /// open_section(name), body(), close_section().
  template <class F>
  void section(const std::string& name, F&& body) const {
    open_section(name);
    body();
    close_section();
  }
  /// Bytes left in the currently open section.
  std::size_t remaining() const { return cursor_end_ - cursor_; }
  /// Runs `body` with the cursor moved to `offset` (a position() of the
  /// open section), then puts the cursor back: a restore step that must
  /// apply a block of fields later than it sits in the section.
  template <class F>
  void reread(std::size_t offset, F&& body) const {
    const std::size_t resume = cursor_;
    cursor_ = offset;
    body();
    cursor_ = resume;
  }
  std::size_t position() const { return cursor_; }

  std::uint8_t u8() const { return get<std::uint8_t>(); }
  std::uint32_t u32() const { return get<std::uint32_t>(); }
  std::uint64_t u64() const { return get<std::uint64_t>(); }
  std::int64_t i64() const { return get<std::int64_t>(); }
  double f64() const { return get<double>(); }
  bool boolean() const { return u8() != 0; }
  std::string str() const;
  void u8(std::uint8_t& v) const { v = u8(); }

  /// Two-way field interface: reads each argument under its wire type.
  template <class... T>
  void operator()(T&... v) {
    (field(v), ...);
  }
  template <class T>
  void check(const T& expected, const char* what) {
    T saved{};
    field(saved);
    VAPRES_REQUIRE(saved == expected, what);
  }
  void count(std::size_t n, const char* what) {
    check(static_cast<std::uint32_t>(n), what);
  }

  template <class T>
  void field(T& v);

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  // payload start within blob_
    std::size_t size = 0;
  };
  const Section& find(const std::string& name) const;
  void need(std::size_t n) const {
    VAPRES_REQUIRE(n <= cursor_end_ - cursor_,
                   "snapshot section read past payload end");
  }
  /// A u32 element count, bounded by the bytes left (every element takes
  /// at least one), so a corrupt count cannot demand a huge allocation.
  std::uint32_t element_count() const;
  /// Copies the next `n` bytes of the open section to `out`.
  void bytes(void* out, std::size_t n) const {
    need(n);
    if (n != 0) std::memcpy(out, blob_.data() + cursor_, n);
    cursor_ += n;
  }
  template <class T>
  T get() const {
    T v{};
    bytes(&v, sizeof v);
    return v;
  }

  std::string blob_;
  std::uint64_t epoch_ = 0;
  std::vector<Section> sections_;
  // Cursor state is logically part of iteration, not of the snapshot.
  mutable std::string open_name_;
  mutable std::size_t cursor_ = 0;
  mutable std::size_t cursor_end_ = 0;
};

// The writer never modifies what it visits; visit members are non-const
// only so the same member can also read.
template <class T>
void SnapshotWriter::field(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    u64(v);
  } else if constexpr (std::is_same_v<T, int> ||
                       std::is_same_v<T, std::int64_t>) {
    i64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    str(v);
  } else if constexpr (detail::Optional<T>::value) {
    field(v.has_value());
    field(v.value_or(typename T::value_type{}));
  } else if constexpr (detail::Pair<T>::value) {
    field(v.first);
    field(v.second);
  } else if constexpr (detail::Bulk<T>::value) {
    if constexpr (!detail::Array<T>::value) {
      u32(static_cast<std::uint32_t>(v.size()));
    }
    bytes(v.data(), v.size() * sizeof(typename T::value_type));
  } else if constexpr (detail::Array<T>::value) {
    for (const auto& e : v) field(e);
  } else if constexpr (detail::Container<T>::value ||
                       detail::Map<T>::value) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) {
      if constexpr (detail::Map<T>::value) {
        field(e.first);
        field(e.second);
      } else {
        field(static_cast<const typename T::value_type&>(e));
      }
    }
  } else if constexpr (requires(T& t) { t.visit(*this); }) {
    const_cast<T&>(v).visit(*this);
  } else {
    visit(*this, const_cast<T&>(v));
  }
}

template <class T>
void SnapshotReader::field(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = u8();
    VAPRES_REQUIRE(b <= 1, "snapshot: boolean byte out of range");
    v = b != 0;
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint8_t raw = u8();
    VAPRES_REQUIRE(raw <= static_cast<std::uint8_t>(enum_last(T{})),
                   "snapshot: enum value out of range");
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = u64();
  } else if constexpr (std::is_same_v<T, int>) {
    const std::int64_t x = i64();
    VAPRES_REQUIRE(x >= std::numeric_limits<int>::min() &&
                       x <= std::numeric_limits<int>::max(),
                   "snapshot: int field out of range");
    v = static_cast<int>(x);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = i64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = str();
  } else if constexpr (detail::Optional<T>::value) {
    bool present = false;
    typename T::value_type x{};
    field(present);
    field(x);
    v = present ? T(std::move(x)) : T();
  } else if constexpr (detail::Pair<T>::value) {
    field(v.first);
    field(v.second);
  } else if constexpr (detail::Bulk<T>::value) {
    if constexpr (!detail::Array<T>::value) {
      const std::uint32_t n = u32();
      need(std::size_t{n} * sizeof(typename T::value_type));  // then allocate
      v.resize(n);
    }
    bytes(v.data(), v.size() * sizeof(typename T::value_type));
  } else if constexpr (detail::Array<T>::value) {
    for (auto& e : v) field(e);
  } else if constexpr (detail::Container<T>::value) {
    const std::uint32_t n = element_count();
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename T::value_type e{};
      field(e);
      v.push_back(std::move(e));
    }
  } else if constexpr (detail::Map<T>::value) {
    const std::uint32_t n = element_count();
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename T::key_type k{};
      typename T::mapped_type x{};
      field(k);
      field(x);
      const auto size_before = v.size();
      v.emplace(std::move(k), std::move(x));
      VAPRES_REQUIRE(v.size() > size_before, "snapshot: duplicate map key");
    }
  } else if constexpr (requires(T& t) { t.visit(*this); }) {
    v.visit(*this);
  } else {
    visit(*this, v);
  }
}

}  // namespace vapres::snap
