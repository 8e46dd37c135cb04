#include "snap/format.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace vapres::snap {

namespace {

template <class T>
T load_at(const std::string& b, std::size_t at) {
  T v{};
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

template <class T>
void store_at(std::string& b, std::size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

/// One FNV-1a chain: the payload bytes still to fold and where its digest
/// goes.
struct Lane {
  const unsigned char* next;
  std::size_t left;
  std::uint64_t hash;
  std::size_t index;
};

/// Folds the next `n` bytes of each of the first N lanes, one byte of
/// every lane per step, so the N multiplies of a step are independent.
template <std::size_t N>
void fold_lanes(Lane* lanes, std::size_t n) {
  std::uint64_t h[N];
  const unsigned char* p[N];
  for (std::size_t l = 0; l < N; ++l) {
    h[l] = lanes[l].hash;
    p[l] = lanes[l].next;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < N; ++l) {
      h[l] ^= p[l][i];
      h[l] *= kFnvPrime;
    }
  }
  for (std::size_t l = 0; l < N; ++l) {
    lanes[l].hash = h[l];
    lanes[l].next += n;
    lanes[l].left -= n;
  }
}

/// This thread's encode buffer between writers. A writer borrows it and
/// hands back whichever of the two buffers is larger, so a steady run of
/// saves reuses one allocation instead of growing a new one each time.
std::string& spare_buffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

std::vector<std::uint64_t> section_digests(
    std::span<const std::string_view> payloads) {
  static_assert(kDigestLanes == 4, "fold dispatch below covers 1..4 lanes");
  std::vector<std::uint64_t> out(payloads.size());
  Lane lanes[kDigestLanes]{};
  std::size_t active = 0;
  std::size_t queued = 0;
  for (;;) {
    // Refill free lanes in payload order; then fold every busy lane up to
    // the end of the shortest, and retire the lanes that finished.
    while (active < kDigestLanes && queued < payloads.size()) {
      const std::string_view p = payloads[queued];
      lanes[active++] = {reinterpret_cast<const unsigned char*>(p.data()),
                         p.size(), kFnvOffset, queued};
      ++queued;
    }
    if (active == 0) break;
    std::size_t n = lanes[0].left;
    for (std::size_t l = 1; l < active; ++l) n = std::min(n, lanes[l].left);
    switch (active) {
      case 4: fold_lanes<4>(lanes, n); break;
      case 3: fold_lanes<3>(lanes, n); break;
      case 2: fold_lanes<2>(lanes, n); break;
      default: fold_lanes<1>(lanes, n); break;
    }
    for (std::size_t l = active; l-- > 0;) {
      if (lanes[l].left != 0) continue;
      out[lanes[l].index] = lanes[l].hash;
      lanes[l] = lanes[--active];
    }
  }
  return out;
}

SnapshotWriter::SnapshotWriter(std::uint64_t epoch) : epoch_(epoch) {
  blob_.swap(spare_buffer());
  if (blob_.size() < 16) expand(16);
  store_at(blob_, 0, kMagic);
  store_at(blob_, 4, kVersion);
  store_at(blob_, 8, epoch_);
  size_ = 16;
}

SnapshotWriter::~SnapshotWriter() {
  std::string& spare = spare_buffer();
  if (blob_.size() > spare.size()) spare.swap(blob_);
}

void SnapshotWriter::expand(std::size_t n) {
  blob_.resize(std::max({blob_.size() * 2, size_ + n, std::size_t{4096}}));
}

void SnapshotWriter::begin_section(const std::string& name) {
  VAPRES_REQUIRE(!finished_, "snapshot writer already finished");
  VAPRES_REQUIRE(!in_section_, "nested snapshot section " + name);
  VAPRES_REQUIRE(!name.empty() && name.size() <= 64,
                 "snapshot section name must be 1..64 chars");
  in_section_ = true;
  str(name);
  grow(16);  // payload length and digest, patched by end_section/finish
  payload_starts_.push_back(size_);
}

void SnapshotWriter::end_section() {
  VAPRES_REQUIRE(in_section_, "end_section without begin_section");
  const std::size_t start = payload_starts_.back();
  store_at<std::uint64_t>(blob_, start - 16, size_ - start);
  in_section_ = false;
}

std::string SnapshotWriter::finish() {
  VAPRES_REQUIRE(!in_section_, "finish inside an open section");
  finished_ = true;
  std::vector<std::string_view> payloads;
  payloads.reserve(payload_starts_.size());
  for (const std::size_t start : payload_starts_) {
    payloads.emplace_back(blob_.data() + start,
                          load_at<std::uint64_t>(blob_, start - 16));
  }
  const std::vector<std::uint64_t> digests = section_digests(payloads);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    store_at(blob_, payload_starts_[i] - 8, digests[i]);
  }
  return blob_.substr(0, size_);
}

SnapshotReader::SnapshotReader(std::string blob) : blob_(std::move(blob)) {
  VAPRES_REQUIRE(blob_.size() >= 16, "snapshot truncated: missing header");
  VAPRES_REQUIRE(load_at<std::uint32_t>(blob_, 0) == SnapshotWriter::kMagic,
                 "snapshot magic mismatch (not a VAPRES snapshot)");
  const auto version = load_at<std::uint32_t>(blob_, 4);
  VAPRES_REQUIRE(version == SnapshotWriter::kVersion,
                 "unsupported snapshot version " + std::to_string(version));
  epoch_ = load_at<std::uint64_t>(blob_, 8);

  std::vector<std::string_view> payloads;
  std::vector<std::uint64_t> expected;
  std::size_t at = 16;
  while (at < blob_.size()) {
    VAPRES_REQUIRE(blob_.size() - at >= 4,
                   "snapshot truncated in section header");
    const auto name_len = load_at<std::uint32_t>(blob_, at);
    at += 4;
    VAPRES_REQUIRE(name_len >= 1 && name_len <= 64 &&
                       blob_.size() - at >= name_len,
                   "snapshot truncated in section name");
    Section s;
    s.name = blob_.substr(at, name_len);
    at += name_len;
    VAPRES_REQUIRE(blob_.size() - at >= 16,
                   "snapshot truncated in section length/digest");
    const auto payload_size = load_at<std::uint64_t>(blob_, at);
    expected.push_back(load_at<std::uint64_t>(blob_, at + 8));
    at += 16;
    VAPRES_REQUIRE(blob_.size() - at >= payload_size,
                   "snapshot truncated in section '" + s.name + "' payload");
    s.offset = at;
    s.size = static_cast<std::size_t>(payload_size);
    for (const Section& prev : sections_) {
      VAPRES_REQUIRE(prev.name != s.name,
                     "duplicate snapshot section '" + s.name + "'");
    }
    payloads.emplace_back(blob_.data() + s.offset, s.size);
    at += s.size;
    sections_.push_back(std::move(s));
  }
  const std::vector<std::uint64_t> digests = section_digests(payloads);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    VAPRES_REQUIRE(digests[i] == expected[i],
                   "snapshot section '" + sections_[i].name +
                       "' digest mismatch");
  }
}

bool SnapshotReader::has_section(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<std::string> SnapshotReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

const SnapshotReader::Section& SnapshotReader::find(
    const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return s;
  }
  VAPRES_REQUIRE(false, "snapshot has no section '" + name + "'");
  __builtin_unreachable();
}

void SnapshotReader::open_section(const std::string& name) const {
  const Section& s = find(name);
  open_name_ = s.name;
  cursor_ = s.offset;
  cursor_end_ = s.offset + s.size;
}

void SnapshotReader::close_section() const {
  VAPRES_REQUIRE(remaining() == 0,
                 "snapshot section '" + open_name_ + "' has " +
                     std::to_string(remaining()) + " unread bytes");
}

std::uint32_t SnapshotReader::element_count() const {
  const std::uint32_t n = u32();
  VAPRES_REQUIRE(n <= remaining(),
                 "snapshot element count exceeds section payload");
  return n;
}

std::string SnapshotReader::str() const {
  const std::uint32_t len = u32();
  need(len);
  std::string s = blob_.substr(cursor_, len);
  cursor_ += len;
  return s;
}

}  // namespace vapres::snap
