// External-memory spill for the sorted shuffle (mapreduce.h).
//
// When a MapReduce job runs under a MapReduceOptions::memory_budget_records
// policy, PartitionedEmitter flushes over-budget partition buckets to disk
// as *sorted runs* and the engine later streams each shuffle partition back
// through a k-way sort-merge, so reducers keep seeing contiguous key runs
// (std::span) while the resident record count stays bounded by the budget
// plus the active merge windows. This header provides the pieces below the
// engine:
//
//  * SpillIo — the byte-level I/O seam. The default implementation is a
//    buffered FILE*; tests wrap it to inject short writes, ENOSPC,
//    truncated reads and bit-flips (tests/spill_test.cc), all of which
//    must surface as clean Status errors — never a crash, never silent
//    record loss, never a silently wrong record.
//  * SpillCodec<T> — the record serializer: trivially copyable types are
//    memcpy'd; std::string, std::pair, std::tuple and std::vector compose
//    recursively. This covers every Key/Value shape the engines shuffle
//    (the same shapes StableHash supports). Callers with exotic types can
//    pass their own serializer to the run writer/reader.
//  * SpillRunWriter / SpillRunReader — sorted runs inside a spill file.
//  * SpillContext — per-job shared state: the budget, the spill directory
//    (owned temp dir unless the caller provided one), run-file naming and
//    refcounted removal, the spill counters JobStats reports, the
//    peak-resident-records gauge that proves the budget is honored, and
//    the first I/O error (sticky).
//
// ---- On-disk format (v2) ----------------------------------------------------
//
// A spill file is a *segment*: one or more sorted runs back to back,
// framed. All integers little-endian; varints are LEB128.
//
//   segment := header run*
//   header  := [u32 magic "2LPS"][u8 version = 2][u8 flags][u16 zero]
//   run     := frame*                     (one frame = one record block)
//   frame   := [varint body_size][u32 checksum][body]
//
// The header's flags are always checksummed | compressed; a reader
// refuses any other magic, version or flags byte as a clean Status.
//
// The checksum (common/hash.h Fingerprint64, folded to 32 bits) covers the
// frame body as stored, so a payload bit-flip surfaces as the same clean
// Status contract a torn frame gets (JobStats::spill_data_loss), instead
// of decoding into a silently wrong record. A frame body is a *block* of
// records (~kSpillBlockTargetBytes) encoded with a byte-level delta
// against the previous record: sorted runs put records with equal or
// adjacent keys next to each other, so consecutive serialized records
// share long prefixes (and, for fixed-width tails, suffixes):
//
//   block record := [token u8 != 0xFF][middle bytes]
//                   (prefix = token >> 4, suffix = token & 0xF, raw size
//                    = prev's raw size, middle implied — the compact form
//                    fixed-width records almost always take)
//                 | [0xFF][varint shared_prefix][varint shared_suffix]
//                   [varint middle_size][middle bytes]
//                   (escape form: a changed record size, or a shared
//                    prefix/suffix longer than a nibble holds)
//   raw record   := prev[0:prefix] + middle + prev[end-suffix:end]
//
// The delta chain resets at each block (the first record of a block deltas
// against the empty string, i.e. is stored whole via the escape form), so
// every frame is independently decodable.
//
// The file holds no index. The writer hands each run back as a
// SpillRunRef, its (offset, length) extent; the engine keeps the refs in
// memory and a reader opens exactly one run by its extent. So one flush
// writes every bucket's run into ONE file (budget-1 sweeps stop creating
// thousands of files). A file that ends inside a run's extent is torn: the
// reader reports it as an error, never as a shorter run.
//
// The merge itself (run cursors, hierarchical pre-merge passes, the
// streamed reduce) lives in mapreduce.h next to the engine, because it is
// templated over the job's Key/Value types.

#ifndef TSJ_MAPREDUCE_SPILL_H_
#define TSJ_MAPREDUCE_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_stats.h"

namespace tsj {

// ---- Byte-level I/O seam ---------------------------------------------------

/// One spill file's byte stream. Implementations need not be internally
/// synchronized: a SpillIo instance is used by one thread at a time.
/// Write may report fewer bytes than requested (a short write — disk
/// full, signal, fault injection); the frame layer turns that into a
/// Status error. Read returns 0 at end of file.
class SpillIo {
 public:
  virtual ~SpillIo() = default;
  virtual Status Open(const std::string& path, bool for_write) = 0;
  virtual StatusOr<size_t> Write(const char* data, size_t size) = 0;
  virtual StatusOr<size_t> Read(char* data, size_t size) = 0;
  /// Repositions the read cursor: a run read seeks to the start of its
  /// extent (the write path never seeks).
  virtual Status Seek(uint64_t offset) = 0;
  virtual Status Close() = 0;
};

/// Factory for SpillIo instances (one per spill file). Tests install a
/// factory returning fault-injecting wrappers via
/// MapReduceOptions::spill_io_factory.
using SpillIoFactory = std::function<std::unique_ptr<SpillIo>()>;

/// The default FILE*-backed implementation.
std::unique_ptr<SpillIo> MakeDefaultSpillIo();

/// Parses a CC_SHUFFLE_SPILL_BUDGET-style value: an unsigned decimal
/// record count with optional surrounding whitespace. Returns 0 (unset)
/// for null/empty input, a leading '-' (strtoull would silently wrap -1
/// into ~2^64), out-of-range values, or trailing junk.
size_t ParseSpillBudget(const char* value);

/// Test-tier budget override: the CC_SHUFFLE_SPILL_BUDGET environment
/// variable (a record count), read once per process. When set, jobs whose
/// options carry no explicit memory_budget_records run under this budget
/// — which lets CI exercise the spill path through every existing test
/// without touching call sites. 0 when unset or
/// unparsable.
size_t SpillBudgetFromEnv();

/// Best-effort removal of one spill file (used after write failures and by
/// SpillContext teardown). Missing files are fine.
void RemoveSpillFile(const std::string& path);

// ---- Record serialization --------------------------------------------------

namespace spill_internal {

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct IsTuple : std::false_type {};
template <typename... Ts>
struct IsTuple<std::tuple<Ts...>> : std::true_type {};

template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};

/// The codec stores string/vector sizes as u32. A size that does not fit
/// must FAIL the encode — truncating it would produce a well-formed but
/// corrupt frame that round-trips as a silently wrong record.
inline bool FitsSpillSize(size_t size) {
  return size <= std::numeric_limits<uint32_t>::max();
}

/// LEB128 append (7 bits per byte, high bit = continuation).
inline void AppendVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// LEB128 decode from [*p, end); advances *p. False on truncation or a
/// varint longer than 10 bytes (corrupt).
inline bool DecodeVarint(const char** p, const char* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    const uint8_t byte = static_cast<uint8_t>(**p);
    ++*p;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace spill_internal

/// Byte serializer for spillable values: structural types (string, pair,
/// tuple, vector) compose recursively, everything else must be trivially
/// copyable and is memcpy'd. Encode appends to `out` and returns false
/// when a size does not fit the format (an element over 4 GiB) — the
/// output is then unusable and the caller must fail the record, never
/// write it. Decode consumes from [*p, end), advancing *p, and returns
/// false when the buffer is too short (a corrupt or truncated frame).
template <typename T>
struct SpillCodec {
  [[nodiscard]] static bool Encode(const T& value, std::string* out) {
    if constexpr (std::is_same_v<T, std::string>) {
      if (!spill_internal::FitsSpillSize(value.size())) return false;
      const uint32_t size = static_cast<uint32_t>(value.size());
      out->append(reinterpret_cast<const char*>(&size), sizeof(size));
      out->append(value.data(), value.size());
      return true;
    } else if constexpr (spill_internal::IsPair<T>::value) {
      return SpillCodec<typename T::first_type>::Encode(value.first, out) &&
             SpillCodec<typename T::second_type>::Encode(value.second, out);
    } else if constexpr (spill_internal::IsTuple<T>::value) {
      return std::apply(
          [out](const auto&... parts) {
            return (SpillCodec<std::decay_t<decltype(parts)>>::Encode(parts,
                                                                      out) &&
                    ...);
          },
          value);
    } else if constexpr (spill_internal::IsVector<T>::value) {
      if (!spill_internal::FitsSpillSize(value.size())) return false;
      const uint32_t count = static_cast<uint32_t>(value.size());
      out->append(reinterpret_cast<const char*>(&count), sizeof(count));
      for (const auto& element : value) {
        if (!SpillCodec<typename T::value_type>::Encode(element, out)) {
          return false;
        }
      }
      return true;
    } else {
      static_assert(std::is_trivially_copyable_v<T>,
                    "SpillCodec: type is neither structural (string, pair, "
                    "tuple, vector) nor trivially copyable; provide a "
                    "custom serializer");
      out->append(reinterpret_cast<const char*>(&value), sizeof(T));
      return true;
    }
  }

  static bool Decode(const char** p, const char* end, T* value) {
    if constexpr (std::is_same_v<T, std::string>) {
      uint32_t size = 0;
      if (static_cast<size_t>(end - *p) < sizeof(size)) return false;
      std::memcpy(&size, *p, sizeof(size));
      *p += sizeof(size);
      if (static_cast<size_t>(end - *p) < size) return false;
      value->assign(*p, size);
      *p += size;
      return true;
    } else if constexpr (spill_internal::IsPair<T>::value) {
      return SpillCodec<typename T::first_type>::Decode(p, end,
                                                        &value->first) &&
             SpillCodec<typename T::second_type>::Decode(p, end,
                                                         &value->second);
    } else if constexpr (spill_internal::IsTuple<T>::value) {
      return std::apply(
          [p, end](auto&... parts) {
            return (SpillCodec<std::decay_t<decltype(parts)>>::Decode(
                        p, end, &parts) &&
                    ...);
          },
          *value);
    } else if constexpr (spill_internal::IsVector<T>::value) {
      uint32_t count = 0;
      if (static_cast<size_t>(end - *p) < sizeof(count)) return false;
      std::memcpy(&count, *p, sizeof(count));
      *p += sizeof(count);
      // Every element encodes at least one byte, so a count beyond the
      // remaining payload is a corrupt frame — reject it BEFORE reserve,
      // or a bit-flipped count turns into a multi-GiB allocation
      // (std::bad_alloc aborts; the contract is a clean decode failure).
      if (count > static_cast<size_t>(end - *p)) return false;
      value->clear();
      value->reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        typename T::value_type element;
        if (!SpillCodec<typename T::value_type>::Decode(p, end, &element)) {
          return false;
        }
        value->push_back(std::move(element));
      }
      return true;
    } else {
      if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
      std::memcpy(value, *p, sizeof(T));
      *p += sizeof(T);
      return true;
    }
  }
};

/// The serializer the engines use for a shuffle record: Key then Value,
/// both through SpillCodec. The encode returns false on an un-encodable
/// record (an element over the format's 4 GiB size field); Parse fails
/// (corrupt frame) when the payload is short or carries trailing bytes.
template <typename Key, typename Value>
struct DefaultSpillSerializer {
  [[nodiscard]] bool operator()(const std::pair<Key, Value>& record,
                                std::string* out) const {
    return SpillCodec<Key>::Encode(record.first, out) &&
           SpillCodec<Value>::Encode(record.second, out);
  }
  bool Parse(const char* data, size_t size,
             std::pair<Key, Value>* record) const {
    const char* p = data;
    const char* end = data + size;
    return SpillCodec<Key>::Decode(&p, end, &record->first) &&
           SpillCodec<Value>::Decode(&p, end, &record->second) && p == end;
  }
};

// ---- Framed run files ------------------------------------------------------

/// Upper bound on one frame's payload; a length prefix beyond it is a
/// corrupt frame, not an allocation request.
inline constexpr uint32_t kMaxSpillFrameBytes = 1u << 30;

/// v2 file header: [magic u32]["2" version u8][flags u8][u16 zero].
inline constexpr uint32_t kSpillMagic = 0x53504C32;  // bytes "2LPS"
inline constexpr uint8_t kSpillFormatVersion = 2;
inline constexpr uint8_t kSpillFlagChecksummed = 0x01;
inline constexpr uint8_t kSpillFlagCompressed = 0x02;
/// The one flags byte the format has: every frame is checksummed and every
/// block delta-compressed.
inline constexpr uint8_t kSpillFlags =
    kSpillFlagChecksummed | kSpillFlagCompressed;
inline constexpr size_t kSpillHeaderBytes = 8;

/// Target encoded size of one record block (= one checksummed frame).
/// Large enough to amortize the frame overhead (varint length + u32
/// checksum) over hundreds of records, small enough that a corrupt frame
/// only voids one block.
inline constexpr size_t kSpillBlockTargetBytes = 16 * 1024;

/// Granularity at which producers and merges publish their local
/// residency deltas into the shared SpillContext gauge: one atomic RMW
/// per batch instead of per record, so the spill path never reintroduces
/// the per-record cross-core traffic the contention-relief tier removed.
/// Part of the documented peak_resident_records slack.
inline constexpr size_t kSpillResidentPublishBatch = 64;

/// Handle to one sorted run: the byte extent of its frames in a segment
/// file, past the header. The only way a run is read back.
struct SpillRunRef {
  std::string path;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Byte/frame-level writer of one segment file, buffered, every short
/// write reported as an error: the versioned header, then checksummed
/// frames. Run boundaries are the caller's: a run is the frames written
/// between two bytes_written() marks.
class SpillFrameWriter {
 public:
  explicit SpillFrameWriter(std::unique_ptr<SpillIo> io);
  ~SpillFrameWriter();

  Status Open(const std::string& path);
  Status WriteFrame(const char* payload, size_t size);
  /// Flushes and closes; the file is only complete when Finish returned
  /// OK.
  Status Finish();

  /// Bytes appended so far (== file size once Finish succeeded).
  uint64_t bytes_written() const { return appended_; }

 private:
  Status FlushBuffer();

  std::unique_ptr<SpillIo> io_;
  std::string buffer_;
  uint64_t appended_ = 0;
  bool open_ = false;
};

/// Byte/frame-level reader of one run (SpillRunRef), read synchronously
/// in chunks. The end of the extent between frames sets *eof; anything
/// else (bad header, an extent outside the frames, a file that ends
/// inside the extent, torn frame, absurd length, checksum mismatch) is a
/// Status error.
class SpillFrameReader {
 public:
  explicit SpillFrameReader(std::unique_ptr<SpillIo> io);
  ~SpillFrameReader();

  /// Set (if at all) before Open.
  void set_checksum_failure_counter(std::atomic<uint64_t>* counter) {
    checksum_failures_ = counter;
  }

  Status Open(const SpillRunRef& ref);
  Status ReadFrame(std::string* payload, bool* eof);
  Status Close();

 private:
  Status ReadBytes(char* data, size_t size, size_t* read);

  std::unique_ptr<SpillIo> io_;
  bool open_ = false;

  // Buffered chunk the caller consumes from, plus the bytes of the open
  // extent still unread from the io.
  std::string chunk_;
  size_t chunk_pos_ = 0;
  uint64_t limit_ = 0;

  std::atomic<uint64_t>* checksum_failures_ = nullptr;
};

/// Writes sorted spill runs of (Key, Value) records through a serializer
/// (DefaultSpillSerializer unless the caller brings its own). One writer
/// produces one segment file: Open, then Append... and EndRun per run,
/// then Finish. Records are packed into delta-encoded checksummed blocks.
template <typename Key, typename Value,
          typename Serializer = DefaultSpillSerializer<Key, Value>>
class SpillRunWriter {
 public:
  explicit SpillRunWriter(std::unique_ptr<SpillIo> io,
                          Serializer serializer = Serializer())
      : frames_(std::move(io)), serializer_(std::move(serializer)) {}

  Status Open(const std::string& path) {
    path_ = path;
    Status s = frames_.Open(path);
    run_start_ = frames_.bytes_written();
    return s;
  }

  Status Append(const std::pair<Key, Value>& record) {
    scratch_.clear();
    if (!serializer_(record, &scratch_)) {
      return Status::InvalidArgument(
          "spill record not encodable: an element exceeds the format's "
          "4 GiB size field");
    }
    // A record the frame layer could never carry fails here, up front,
    // instead of poisoning the block it would have joined.
    if (scratch_.size() > kMaxSpillFrameBytes - kBlockSlackBytes) {
      return Status::InvalidArgument(
          "spill record larger than the frame cap");
    }
    raw_bytes_ += scratch_.size();
    Status s = AppendToBlock();
    if (s.ok()) ++records_written_;
    return s;
  }

  /// Closes the records appended since Open or the previous EndRun into
  /// one run and returns its extent in *ref.
  Status EndRun(SpillRunRef* ref) {
    if (Status s = FlushBlock(); !s.ok()) return s;
    const uint64_t end = frames_.bytes_written();
    *ref = SpillRunRef{path_, run_start_, end - run_start_};
    run_start_ = end;
    return Status::OK();
  }

  /// Flushes and closes the file. Records appended after the last EndRun
  /// belong to no run.
  Status Finish() { return frames_.Finish(); }

  uint64_t bytes_written() const { return frames_.bytes_written(); }
  /// Serialized record bytes before block encoding (the compression
  /// baseline: spill_raw_bytes vs spill_bytes).
  uint64_t raw_bytes() const { return raw_bytes_; }
  uint64_t records_written() const { return records_written_; }

 private:
  // Room a block-encoded record may add on top of its raw bytes (the
  // escape token plus three 10-byte varints), kept clear of the frame cap.
  static constexpr size_t kBlockSlackBytes = 32;

  Status AppendToBlock() {
    if (!block_.empty() &&
        block_.size() + scratch_.size() + kBlockSlackBytes >
            kMaxSpillFrameBytes) {
      if (Status s = FlushBlock(); !s.ok()) return s;
    }
    const std::string& prev = prev_record_;
    const size_t max_shared = std::min(prev.size(), scratch_.size());
    size_t prefix = 0;
    while (prefix < max_shared && prev[prefix] == scratch_[prefix]) {
      ++prefix;
    }
    size_t suffix = 0;
    const size_t max_suffix = max_shared - prefix;
    while (suffix < max_suffix &&
           prev[prev.size() - 1 - suffix] ==
               scratch_[scratch_.size() - 1 - suffix]) {
      ++suffix;
    }
    const size_t middle = scratch_.size() - prefix - suffix;
    if (scratch_.size() == prev.size() && prefix <= 0xF && suffix <= 0xF &&
        !(prefix == 0xF && suffix == 0xF)) {
      // Compact form: same raw size as the previous record and both
      // shares fit a nibble, so one token byte replaces three varints
      // (middle size is implied). 0xFF cannot occur here and marks the
      // escape form.
      block_.push_back(static_cast<char>((prefix << 4) | suffix));
    } else {
      block_.push_back(static_cast<char>(0xFF));
      spill_internal::AppendVarint(prefix, &block_);
      spill_internal::AppendVarint(suffix, &block_);
      spill_internal::AppendVarint(middle, &block_);
    }
    block_.append(scratch_.data() + prefix, middle);
    std::swap(prev_record_, scratch_);
    if (block_.size() >= kSpillBlockTargetBytes) return FlushBlock();
    return Status::OK();
  }

  Status FlushBlock() {
    if (block_.empty()) return Status::OK();
    Status s = frames_.WriteFrame(block_.data(), block_.size());
    block_.clear();
    prev_record_.clear();  // the delta chain resets at each block
    return s;
  }

  SpillFrameWriter frames_;
  Serializer serializer_;
  std::string path_;
  std::string scratch_;
  std::string block_;
  std::string prev_record_;
  uint64_t run_start_ = 0;
  uint64_t raw_bytes_ = 0;
  uint64_t records_written_ = 0;
};

/// Reads one spill run back by its extent (SpillRunRef). Next sets *done
/// at the end of the extent; a torn run, corrupt frames, checksum
/// mismatches and malformed block encodings come back as error Status
/// (never a partial or silently wrong record).
template <typename Key, typename Value,
          typename Serializer = DefaultSpillSerializer<Key, Value>>
class SpillRunReader {
 public:
  explicit SpillRunReader(std::unique_ptr<SpillIo> io,
                          Serializer serializer = Serializer())
      : frames_(std::move(io)), serializer_(std::move(serializer)) {}

  void set_checksum_failure_counter(std::atomic<uint64_t>* counter) {
    frames_.set_checksum_failure_counter(counter);
  }

  Status Open(const SpillRunRef& ref) { return frames_.Open(ref); }

  Status Next(std::pair<Key, Value>* record, bool* done) {
    while (block_pos_ >= block_.size()) {
      bool eof = false;
      Status s = frames_.ReadFrame(&block_, &eof);
      if (!s.ok()) return s;
      if (eof) {
        *done = true;
        return Status::OK();
      }
      block_pos_ = 0;
      prev_record_.clear();  // the delta chain resets at each block
    }
    if (Status s = DecodeBlockRecord(); !s.ok()) return s;
    if (!serializer_.Parse(prev_record_.data(), prev_record_.size(),
                           record)) {
      return Status::Internal("corrupt spill frame payload");
    }
    *done = false;
    return Status::OK();
  }

  Status Close() { return frames_.Close(); }

 private:
  // Decodes the next record's raw bytes into prev_record_ (which then
  // seeds the next record's delta).
  Status DecodeBlockRecord() {
    const char* p = block_.data() + block_pos_;
    const char* end = block_.data() + block_.size();
    uint64_t prefix = 0, suffix = 0, middle = 0;
    if (p >= end) return Status::Internal("corrupt spill block encoding");
    const uint8_t token = static_cast<uint8_t>(*p++);
    if (token == 0xFF) {
      if (!spill_internal::DecodeVarint(&p, end, &prefix) ||
          !spill_internal::DecodeVarint(&p, end, &suffix) ||
          !spill_internal::DecodeVarint(&p, end, &middle)) {
        return Status::Internal("corrupt spill block encoding");
      }
    } else {
      // Compact token: the record is prev-sized, so the middle length is
      // whatever the nibble-coded shares leave uncovered.
      prefix = token >> 4;
      suffix = token & 0xF;
      if (prefix + suffix > prev_record_.size()) {
        return Status::Internal("corrupt spill block encoding");
      }
      middle = prev_record_.size() - prefix - suffix;
    }
    if (prefix + suffix > prev_record_.size() ||
        middle > static_cast<uint64_t>(end - p)) {
      return Status::Internal("corrupt spill block encoding");
    }
    scratch_.clear();
    scratch_.append(prev_record_.data(), prefix);
    scratch_.append(p, middle);
    scratch_.append(prev_record_.data() + (prev_record_.size() - suffix),
                    suffix);
    std::swap(prev_record_, scratch_);
    block_pos_ = static_cast<size_t>(p - block_.data()) + middle;
    return Status::OK();
  }

  SpillFrameReader frames_;
  Serializer serializer_;
  std::string block_;         // the current decoded-from block
  size_t block_pos_ = 0;
  std::string prev_record_;   // raw bytes of the last decoded record
  std::string scratch_;
};

// ---- Per-job spill state ---------------------------------------------------

/// Shared by every producer and merge of one job (thread-safe). It is the
/// one owner of every spill file the job writes: a file is removed when
/// its last run is released, and at destruction every file it ever named
/// goes, with the spill directory when it created one. It also owns the
/// spill counters JobStats reports; tracks per-file live-run counts so
/// pre-merges can drop a consumed run without deleting a segment file
/// that still backs other partitions' runs; and carries the job's
/// peak-resident-records gauge: emitters Add on every emit and
/// Sub on every flush, merges Add/Sub their active window, so
/// `resident().peak()` is the in-memory high-water mark the budget bounds
/// (slack: one merge window per concurrent reduce worker plus one record
/// per producer, the flush trigger's overshoot).
class SpillContext {
 public:
  /// budget > 0 (records). `dir` empty = create an owned temp directory.
  /// `factory` null = default FILE* io. Call Init() before use.
  SpillContext(size_t budget, std::string dir, SpillIoFactory factory);
  ~SpillContext();

  SpillContext(const SpillContext&) = delete;
  SpillContext& operator=(const SpillContext&) = delete;

  /// Creates/validates the spill directory.
  Status Init();

  size_t budget() const { return budget_; }

  /// A fresh unique run-file path (registered for teardown removal).
  std::string NewRunPath();

  /// A fresh SpillIo from the configured factory (or the default).
  std::unique_ptr<SpillIo> NewIo() const;

  /// Live-run refcounting for shared segment files: every run a writer
  /// committed into `path` is registered; a merge that consumed a run (or
  /// an abandoned map attempt that wrote it) releases it, and the file is
  /// removed once its last run is released. Releasing an unregistered
  /// path removes the file immediately.
  void RegisterRuns(const std::string& path, uint64_t runs);
  void ReleaseRun(const std::string& path);

  ShuffleGauge& resident() { return resident_; }

  void AddRunFile(uint64_t records, uint64_t bytes, uint64_t raw_bytes) {
    spilled_records_.fetch_add(records, std::memory_order_relaxed);
    spill_files_.fetch_add(1, std::memory_order_relaxed);
    spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    spill_raw_bytes_.fetch_add(raw_bytes, std::memory_order_relaxed);
  }
  /// One hierarchical pre-merge pass over a partition's runs (the final
  /// streamed merge into the reducer is not counted: it is always exactly
  /// one pass per spilled partition, counted separately by the engine).
  void AddMergePass() {
    merge_passes_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Readers bump this on every frame whose checksum did not match
  /// (JobStats::checksum_failures).
  std::atomic<uint64_t>* checksum_failure_counter() {
    return &checksum_failures_;
  }

  /// First error wins; later ones are dropped (the first failure is the
  /// actionable one; everything after is usually fallout). Use for
  /// *degraded* faults — failed spill writes whose records stayed in
  /// memory, so the job's output is still complete.
  void RecordError(const Status& status);
  /// Like RecordError, but for *lossy* faults: a failed read or merge
  /// aborted a partition whose records were already on disk, so the
  /// job's output may be incomplete. Recorded into both status() and
  /// data_loss().
  void RecordDataLoss(const Status& status);
  /// OK unless some spill I/O failed (degraded or lossy). Engines copy
  /// this into JobStats::spill_status for observability.
  Status status() const;
  /// OK unless output may be incomplete (JobStats::spill_data_loss) —
  /// the only fault class that must fail a pipeline's result.
  Status data_loss() const;

  uint64_t spilled_records() const {
    return spilled_records_.load(std::memory_order_relaxed);
  }
  uint64_t spill_files() const {
    return spill_files_.load(std::memory_order_relaxed);
  }
  uint64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t spill_raw_bytes() const {
    return spill_raw_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t merge_passes() const {
    return merge_passes_.load(std::memory_order_relaxed);
  }
  uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }
 private:
  const size_t budget_;
  std::string dir_;
  bool owns_dir_ = false;
  SpillIoFactory factory_;
  /// Per-context tag baked into every run-file name, so concurrent jobs
  /// pointed at the same explicit spill_dir never collide (the owned
  /// temp dir is unique anyway; an explicit dir is not).
  uint64_t tag_ = 0;
  std::atomic<uint64_t> file_seq_{0};
  ShuffleGauge resident_;

  std::atomic<uint64_t> spilled_records_{0};
  std::atomic<uint64_t> spill_files_{0};
  std::atomic<uint64_t> spill_bytes_{0};
  std::atomic<uint64_t> spill_raw_bytes_{0};
  std::atomic<uint64_t> merge_passes_{0};
  std::atomic<uint64_t> checksum_failures_{0};

  mutable std::mutex mutex_;  // guards statuses, paths and live runs
  Status error_;
  Status data_loss_;
  std::vector<std::string> created_paths_;
  std::unordered_map<std::string, uint64_t> live_runs_;
};

}  // namespace tsj

#endif  // TSJ_MAPREDUCE_SPILL_H_
