// Fault-injection and unit tier of the external-memory spill subsystem
// (mapreduce/spill.h): codec round-trips, framed segment files, the
// SpillIo seam under injected short writes / ENOSPC / truncated reads /
// bit-flips, and the engine-level guarantee that every spill I/O fault
// surfaces as a clean Status — no crash, no silent record loss, no
// silently wrong record.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/spill.h"

namespace tsj {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ---- Codec -----------------------------------------------------------------

TEST(SpillCodecTest, RoundTripsStructuralAndTrivialTypes) {
  struct Trivial {
    uint32_t a;
    double b;
    bool c;
  };
  const std::string with_nul("hello\0world", 11);  // embedded NUL survives
  std::string buffer;
  ASSERT_TRUE(SpillCodec<uint32_t>::Encode(0xdeadbeefu, &buffer));
  ASSERT_TRUE(SpillCodec<std::string>::Encode(with_nul, &buffer));
  ASSERT_TRUE((SpillCodec<std::pair<uint64_t, std::string>>::Encode(
      {42, "pair"}, &buffer)));
  using Sig = std::tuple<uint32_t, uint32_t, uint32_t, std::string>;
  ASSERT_TRUE(SpillCodec<Sig>::Encode(Sig{1, 2, 3, "chunk"}, &buffer));
  ASSERT_TRUE(SpillCodec<Trivial>::Encode(Trivial{7, 2.5, true}, &buffer));

  const char* p = buffer.data();
  const char* end = buffer.data() + buffer.size();
  uint32_t u = 0;
  ASSERT_TRUE(SpillCodec<uint32_t>::Decode(&p, end, &u));
  EXPECT_EQ(u, 0xdeadbeefu);
  std::string s;
  ASSERT_TRUE(SpillCodec<std::string>::Decode(&p, end, &s));
  EXPECT_EQ(s, with_nul);
  std::pair<uint64_t, std::string> pr;
  ASSERT_TRUE(
      (SpillCodec<std::pair<uint64_t, std::string>>::Decode(&p, end, &pr)));
  EXPECT_EQ(pr, (std::pair<uint64_t, std::string>{42, "pair"}));
  Sig sig;
  ASSERT_TRUE(SpillCodec<Sig>::Decode(&p, end, &sig));
  EXPECT_EQ(sig, (Sig{1, 2, 3, "chunk"}));
  Trivial t{};
  ASSERT_TRUE(SpillCodec<Trivial>::Decode(&p, end, &t));
  EXPECT_EQ(t.a, 7u);
  EXPECT_EQ(t.b, 2.5);
  EXPECT_TRUE(t.c);
  EXPECT_EQ(p, end);
}

TEST(SpillCodecTest, DecodeFailsCleanlyOnShortBuffers) {
  std::string buffer;
  ASSERT_TRUE(SpillCodec<std::string>::Encode("0123456789", &buffer));
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    const char* p = buffer.data();
    const char* end = buffer.data() + cut;
    std::string out;
    EXPECT_FALSE(SpillCodec<std::string>::Decode(&p, end, &out))
        << "cut=" << cut;
  }
}

TEST(SpillCodecTest, OversizeElementFailsEncodeInsteadOfTruncating) {
  // The codec stores string sizes as u32; an element over 4 GiB
  // must fail the encode, never truncate the length (which would produce
  // a well-formed but silently corrupt frame). Tested through the size
  // guard — allocating a real 4 GiB element is not CI material.
  EXPECT_TRUE(spill_internal::FitsSpillSize(0));
  EXPECT_TRUE(spill_internal::FitsSpillSize(
      std::numeric_limits<uint32_t>::max()));
  EXPECT_FALSE(spill_internal::FitsSpillSize(uint64_t{1} << 32));
  EXPECT_FALSE(spill_internal::FitsSpillSize(
      std::numeric_limits<size_t>::max()));
}

// ---- Budget parsing --------------------------------------------------------

TEST(SpillBudgetTest, ParseTableRejectsNegativeAndMalformedValues) {
  EXPECT_EQ(ParseSpillBudget(nullptr), 0u);
  EXPECT_EQ(ParseSpillBudget(""), 0u);
  EXPECT_EQ(ParseSpillBudget("16"), 16u);
  EXPECT_EQ(ParseSpillBudget("  16  "), 16u);
  EXPECT_EQ(ParseSpillBudget("0"), 0u);
  // strtoull would happily wrap "-1" into ~2^64 — a negative budget is
  // unset, not "spill everything always".
  EXPECT_EQ(ParseSpillBudget("-1"), 0u);
  EXPECT_EQ(ParseSpillBudget(" -5"), 0u);
  // Nor after whitespace other than ' ' and '\t', which strtoull skips.
  EXPECT_EQ(ParseSpillBudget("\n-1"), 0u);
  EXPECT_EQ(ParseSpillBudget("\r-1"), 0u);
  EXPECT_EQ(ParseSpillBudget("\v-1"), 0u);
  EXPECT_EQ(ParseSpillBudget("\f-5"), 0u);
  EXPECT_EQ(ParseSpillBudget("99999999999999999999999999"), 0u);  // ERANGE
  EXPECT_EQ(ParseSpillBudget("abc"), 0u);
  EXPECT_EQ(ParseSpillBudget("16abc"), 0u);
}

// ---- Run files (happy path) ------------------------------------------------

using Record = std::pair<std::string, int>;

std::vector<Record> SomeRecords(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back("key" + std::to_string(i % 7), i);
  }
  return records;
}

// Writes `records` as one run and returns its extent.
SpillRunRef WriteRun(const std::string& path,
                     const std::vector<Record>& records) {
  SpillRunWriter<std::string, int> writer(MakeDefaultSpillIo());
  SpillRunRef ref;
  EXPECT_TRUE(writer.Open(path).ok());
  for (const Record& record : records) {
    EXPECT_TRUE(writer.Append(record).ok());
  }
  EXPECT_TRUE(writer.EndRun(&ref).ok());
  EXPECT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.records_written(), records.size());
  EXPECT_EQ(ref.offset + ref.length, writer.bytes_written());
  return ref;
}

// Reads the run through `io` until it ends or errors, counting checksum
// failures into `failures` when given; returns the terminal status and
// the records recovered before it.
Status DrainRun(const SpillRunRef& ref, std::vector<Record>* out,
                std::unique_ptr<SpillIo> io = MakeDefaultSpillIo(),
                std::atomic<uint64_t>* failures = nullptr) {
  SpillRunReader<std::string, int> reader(std::move(io));
  reader.set_checksum_failure_counter(failures);
  if (Status s = reader.Open(ref); !s.ok()) return s;
  while (true) {
    Record record;
    bool done = false;
    Status s = reader.Next(&record, &done);
    if (!s.ok()) return s;
    if (done) return reader.Close();
    out->push_back(std::move(record));
  }
}

TEST(SpillRunTest, WriteReadRoundTrip) {
  // A run that fits one read chunk, and one of 4 KiB records that spans
  // several 256 KiB chunks.
  std::vector<Record> big;
  for (int i = 0; i < 300; ++i) {
    big.emplace_back("key" + std::to_string(i) + std::string(4096, 'p'), i);
  }
  for (const std::vector<Record>& records : {SomeRecords(100), big}) {
    const std::string path = TempPath("spill_roundtrip.run");
    const SpillRunRef ref = WriteRun(path, records);
    std::vector<Record> read_back;
    ASSERT_TRUE(DrainRun(ref, &read_back).ok());
    EXPECT_EQ(read_back, records);
    RemoveSpillFile(path);
  }
}

TEST(SpillRunTest, MissingFileIsCleanError) {
  SpillRunReader<std::string, int> reader(MakeDefaultSpillIo());
  EXPECT_FALSE(
      reader.Open({TempPath("no_such_file.run"), kSpillHeaderBytes, 0}).ok());
}

// ---- Torn / corrupt frames -------------------------------------------------

// Records whose keys are larger than one block: every record is a frame
// of its own, as in a run of big rows.
std::vector<Record> FramePerRecord(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back(
        std::string(kSpillBlockTargetBytes + 100, static_cast<char>('a' + i)),
        i);
  }
  return records;
}

TEST(SpillRunTest, TornFinalFrameIsDetectedByLengthPrefix) {
  const std::string path = TempPath("spill_torn.run");
  const std::vector<Record> records = FramePerRecord(20);
  const SpillRunRef ref = WriteRun(path, records);
  // Tear the final frame: drop its last few payload bytes, the classic
  // crash-mid-write artifact. The length prefix
  // promises more bytes than the file holds, so the reader must error —
  // not return a short record.
  std::filesystem::resize_file(path, ref.offset + ref.length - 3);

  std::vector<Record> recovered;
  Status s = DrainRun(ref, &recovered);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("torn"), std::string::npos) << s.ToString();
  // Everything before the torn frame was recovered intact.
  EXPECT_EQ(recovered.size(), records.size() - 1);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i], records[i]);
  }
  RemoveSpillFile(path);
}

TEST(SpillRunTest, TruncatedFrameHeaderIsCleanError) {
  // Cut the file 2 bytes into the last frame's header (neither a clean
  // end between frames nor a full header), or exactly where that frame
  // starts: a frame boundary, but the run's extent still promises the
  // frame. A run of the first 4 records ends exactly where the 5-record
  // run's last frame starts (each record is a frame of its own).
  const std::string path = TempPath("spill_torn_header.run");
  const std::vector<Record> records = FramePerRecord(5);
  const SpillRunRef prefix_run = WriteRun(
      path, std::vector<Record>(records.begin(), records.end() - 1));
  const uint64_t last_frame = prefix_run.offset + prefix_run.length;
  const struct {
    uint64_t cut;
    const char* message;
  } kCuts[] = {{2, "truncated spill frame header"}, {0, "torn"}};
  for (const auto& [cut, message] : kCuts) {
    const SpillRunRef ref = WriteRun(path, records);
    std::filesystem::resize_file(path, last_frame + cut);

    std::vector<Record> recovered;
    Status s = DrainRun(ref, &recovered);
    EXPECT_FALSE(s.ok()) << "cut " << cut;
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_NE(s.message().find(message), std::string::npos) << s.ToString();
    EXPECT_EQ(recovered.size(), records.size() - 1);
  }
  RemoveSpillFile(path);
}

TEST(SpillRunTest, CorruptLengthPrefixIsCleanError) {
  // Stamp a bogus body size over the first frame's u32 size field, right
  // after the header: 2^32 - 1 is past the frame cap, and 2^29 is under
  // the cap but far past the run's extent. Either must be refused before
  // the reader allocates a buffer of that size.
  const std::string path = TempPath("spill_corrupt_len.run");
  for (const uint32_t bogus : {~uint32_t{0}, uint32_t{1} << 29}) {
    SCOPED_TRACE("size " + std::to_string(bogus));
    const SpillRunRef ref = WriteRun(path, {{"k", 1}});
    {
      std::FILE* f = std::fopen(path.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fseek(f, kSpillHeaderBytes, SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
      std::fclose(f);
    }
    std::vector<Record> recovered;
    Status s = DrainRun(ref, &recovered);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("corrupt spill frame length prefix"),
              std::string::npos)
        << s.ToString();
    EXPECT_TRUE(recovered.empty());
  }
  RemoveSpillFile(path);
}

TEST(SpillRunTest, CorruptPayloadIsCleanError) {
  // Well-formed, checksummed frames whose body ends inside a record: a
  // record cut short alone, and a whole record followed by a cut one. The
  // reader returns the whole records and then a clean error.
  const std::string path = TempPath("spill_corrupt_payload.run");
  const Record whole{"ab", 7};
  std::string encoded;
  ASSERT_TRUE((DefaultSpillSerializer<std::string, int>()(whole, &encoded)));
  const std::string cut = encoded.substr(0, encoded.size() - 1);
  const struct {
    std::string body;
    size_t whole_records;
  } kBodies[] = {{cut, 0}, {encoded + cut, 1}};
  for (const auto& [body, whole_records] : kBodies) {
    SpillRunRef ref{path, kSpillHeaderBytes, 0};
    {
      SpillFrameWriter frames(MakeDefaultSpillIo());
      ASSERT_TRUE(frames.Open(path).ok());
      ASSERT_TRUE(frames.WriteFrame(body.data(), body.size()).ok());
      ref.length = frames.bytes_written() - ref.offset;
      ASSERT_TRUE(frames.Finish().ok());
    }
    std::vector<Record> recovered;
    Status s = DrainRun(ref, &recovered);
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.message().find("corrupt spill frame payload"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(recovered, std::vector<Record>(whole_records, whole));
  }
  RemoveSpillFile(path);
}

TEST(SpillRunTest, TornV2SegmentIsCleanError) {
  // Truncating a segment tears the run at its end (here one block of
  // small records); the reader must refuse the run with a clean Status
  // instead of mis-parsing it.
  const std::string path = TempPath("spill_torn_v2.run");
  const SpillRunRef ref = WriteRun(path, SomeRecords(20));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  std::vector<Record> recovered;
  EXPECT_FALSE(DrainRun(ref, &recovered).ok());
  RemoveSpillFile(path);
}

TEST(SpillRunTest, UnencodableRecordFailsAppendWithInvalidArgument) {
  // A record the serializer cannot encode (e.g. an element over the
  // format's 4 GiB size field) must fail the Append cleanly — nothing may
  // reach the frame layer.
  struct RefusingSerializer {
    bool operator()(const Record&, std::string*) const { return false; }
    bool Parse(const char**, const char*, Record*) const { return false; }
  };
  const std::string path = TempPath("spill_unencodable.run");
  SpillRunWriter<std::string, int, RefusingSerializer> writer(
      MakeDefaultSpillIo());
  ASSERT_TRUE(writer.Open(path).ok());
  const Status s = writer.Append({"k", 1});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.records_written(), 0u);
  ASSERT_TRUE(writer.Finish().ok());
  RemoveSpillFile(path);
}

// ---- Segments (multi-run files) --------------------------------------------

TEST(SpillSegmentTest, BoundedReadsHonorRunExtents) {
  const std::string path = TempPath("spill_segment.run");
  std::vector<std::vector<Record>> runs(3);
  for (size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 50; ++i) {
      runs[r].emplace_back(
          "p" + std::to_string(r) + "-" + std::to_string(i), i);
    }
  }

  std::vector<SpillRunRef> refs(runs.size());
  {
    SpillRunWriter<std::string, int> writer(MakeDefaultSpillIo());
    ASSERT_TRUE(writer.Open(path).ok());
    for (size_t r = 0; r < runs.size(); ++r) {
      for (const Record& record : runs[r]) {
        ASSERT_TRUE(writer.Append(record).ok());
      }
      ASSERT_TRUE(writer.EndRun(&refs[r]).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  // Each run reads back alone through its bounded extent — no bleed into
  // the neighboring runs.
  for (size_t r = 0; r < runs.size(); ++r) {
    std::vector<Record> read_back;
    ASSERT_TRUE(DrainRun(refs[r], &read_back).ok());
    EXPECT_EQ(read_back, runs[r]);
  }

  // An extent outside the frames is a clean error, never a whole-file or
  // header read — {0, 0} included.
  for (const SpillRunRef& bad :
       {SpillRunRef{path, 0, 0}, SpillRunRef{path, 4, refs[0].length},
        SpillRunRef{path, refs[0].offset, ~uint64_t{0}}}) {
    SpillRunReader<std::string, int> reader(MakeDefaultSpillIo());
    const Status s = reader.Open(bad);
    EXPECT_FALSE(s.ok()) << bad.offset;
    EXPECT_NE(s.message().find("extent"), std::string::npos) << s.ToString();
  }
  RemoveSpillFile(path);
}

// ---- SpillIo fault injection ----------------------------------------------

// Wraps the default io: writes succeed for `write_budget` bytes, then
// either report ENOSPC or make no progress (a persistent short write).
class FaultyWriteIo final : public SpillIo {
 public:
  FaultyWriteIo(size_t write_budget, bool enospc)
      : inner_(MakeDefaultSpillIo()),
        budget_(write_budget),
        enospc_(enospc) {}

  Status Open(const std::string& path, bool for_write) override {
    return inner_->Open(path, for_write);
  }
  StatusOr<size_t> Write(const char* data, size_t size) override {
    if (budget_ == 0) {
      if (enospc_) return Status::ResourceExhausted("injected: disk full");
      return size_t{0};  // injected short write, no progress
    }
    const size_t allowed = std::min(size, budget_);
    StatusOr<size_t> written = inner_->Write(data, allowed);
    if (written.ok()) budget_ -= *written;
    return written;
  }
  StatusOr<size_t> Read(char* data, size_t size) override {
    return inner_->Read(data, size);
  }
  Status Seek(uint64_t offset) override { return inner_->Seek(offset); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SpillIo> inner_;
  size_t budget_;
  bool enospc_;
};

// Wraps the default io: files opened for reading end prematurely after
// `read_limit` bytes (a torn file as seen by the consumer).
class TruncatingReadIo final : public SpillIo {
 public:
  explicit TruncatingReadIo(size_t read_limit)
      : inner_(MakeDefaultSpillIo()), remaining_(read_limit) {}

  Status Open(const std::string& path, bool for_write) override {
    reading_ = !for_write;
    return inner_->Open(path, for_write);
  }
  StatusOr<size_t> Write(const char* data, size_t size) override {
    return inner_->Write(data, size);
  }
  StatusOr<size_t> Read(char* data, size_t size) override {
    if (!reading_) return inner_->Read(data, size);
    const size_t allowed = std::min(size, remaining_);
    if (allowed == 0) return size_t{0};  // injected premature EOF
    StatusOr<size_t> read = inner_->Read(data, allowed);
    if (read.ok()) remaining_ -= *read;
    return read;
  }
  Status Seek(uint64_t offset) override { return inner_->Seek(offset); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SpillIo> inner_;
  size_t remaining_;
  bool reading_ = false;
};

// Wraps the default io: XORs `mask` into the byte at absolute file offset
// `flip_offset` on the read path (writes land intact) — the classic
// storage bit-rot fault the frame checksums exist for. Tracks the stream
// position through Seek so bounded run reads see the flip too.
class BitFlipReadIo final : public SpillIo {
 public:
  explicit BitFlipReadIo(uint64_t flip_offset, uint8_t mask = 0x08)
      : inner_(MakeDefaultSpillIo()), flip_offset_(flip_offset),
        mask_(mask) {}

  Status Open(const std::string& path, bool for_write) override {
    reading_ = !for_write;
    pos_ = 0;
    return inner_->Open(path, for_write);
  }
  StatusOr<size_t> Write(const char* data, size_t size) override {
    return inner_->Write(data, size);
  }
  StatusOr<size_t> Read(char* data, size_t size) override {
    StatusOr<size_t> read = inner_->Read(data, size);
    if (read.ok() && reading_) {
      if (flip_offset_ >= pos_ && flip_offset_ < pos_ + *read) {
        data[flip_offset_ - pos_] ^= static_cast<char>(mask_);
      }
      pos_ += *read;
    }
    return read;
  }
  Status Seek(uint64_t offset) override {
    pos_ = offset;
    return inner_->Seek(offset);
  }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SpillIo> inner_;
  const uint64_t flip_offset_;
  const uint8_t mask_;
  uint64_t pos_ = 0;
  bool reading_ = false;
};

// Wraps the default io: every Write lands at most `cap` bytes (progress,
// not failure), and Write call number `fail_on_call` returns an error —
// a transient mid-flush fault with part of the buffer already on disk.
class PartialFailOnceIo final : public SpillIo {
 public:
  PartialFailOnceIo(size_t cap, size_t fail_on_call)
      : inner_(MakeDefaultSpillIo()), cap_(cap),
        fail_on_call_(fail_on_call) {}

  Status Open(const std::string& path, bool for_write) override {
    return inner_->Open(path, for_write);
  }
  StatusOr<size_t> Write(const char* data, size_t size) override {
    if (++calls_ == fail_on_call_) {
      return Status::Internal("injected: transient write error");
    }
    return inner_->Write(data, std::min(size, cap_));
  }
  StatusOr<size_t> Read(char* data, size_t size) override {
    return inner_->Read(data, size);
  }
  Status Seek(uint64_t offset) override { return inner_->Seek(offset); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SpillIo> inner_;
  const size_t cap_;
  const size_t fail_on_call_;
  size_t calls_ = 0;
};

TEST(SpillFaultTest, EnospcSurfacesAsStatusFromWriter) {
  const std::string path = TempPath("spill_enospc.run");
  SpillRunWriter<std::string, int> writer(
      std::make_unique<FaultyWriteIo>(16, /*enospc=*/true));
  ASSERT_TRUE(writer.Open(path).ok());
  Status status = Status::OK();
  // The writer buffers ~256 KiB before touching the io, so pump enough
  // records to cross it; the injected fault must come back as a Status.
  for (int i = 0; i < 300000 && status.ok(); ++i) {
    status = writer.Append({"key" + std::to_string(i), i});
  }
  if (status.ok()) status = writer.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  RemoveSpillFile(path);
}

TEST(SpillFaultTest, PersistentShortWriteSurfacesAsStatus) {
  const std::string path = TempPath("spill_shortwrite.run");
  SpillRunWriter<std::string, int> writer(
      std::make_unique<FaultyWriteIo>(10, /*enospc=*/false));
  ASSERT_TRUE(writer.Open(path).ok());
  Status status = Status::OK();
  for (int i = 0; i < 300000 && status.ok(); ++i) {
    status = writer.Append({"key" + std::to_string(i), i});
  }
  if (status.ok()) status = writer.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("short write"), std::string::npos)
      << status.ToString();
  RemoveSpillFile(path);
}

TEST(SpillFaultTest, TransientFlushErrorDoesNotDuplicatePartialFrames) {
  // Regression: a mid-flush error used to leave the already-written
  // prefix in the writer's buffer, so the next flush (Finish after a
  // transient fault) re-wrote those bytes and duplicated partial frames.
  // Every write lands at most 7 bytes; call #3 fails — by then a prefix
  // of the buffer is on disk.
  const std::string path = TempPath("spill_flush_retry.run");
  SpillRunWriter<std::string, int> writer(
      std::make_unique<PartialFailOnceIo>(7, 3));
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Record> records;
  bool saw_error = false;
  // 4 KiB keys so the 256 KiB write buffer flushes mid-stream.
  for (int i = 0; i < 80; ++i) {
    Record record{"key" + std::to_string(1000 + i) + std::string(4096, 'q'),
                  i};
    records.push_back(record);
    if (!writer.Append(record).ok()) saw_error = true;
  }
  ASSERT_TRUE(saw_error);  // the injected fault reached the caller
  // The transient fault has passed; Finish retries the buffered bytes.
  SpillRunRef ref;
  ASSERT_TRUE(writer.EndRun(&ref).ok());
  ASSERT_TRUE(writer.Finish().ok());
  std::vector<Record> recovered;
  ASSERT_TRUE(DrainRun(ref, &recovered).ok());
  EXPECT_EQ(recovered, records);  // every frame exactly once, in order
  RemoveSpillFile(path);
}

// ---- Checksum tier ---------------------------------------------------------

// Writes a small run with a known layout: header bytes [0,8), then one
// frame = [u32 body size @8-11][u32 checksum @12-15][30-byte body @16-45:
// three 10-byte records, each a u32 key size, the 2-byte key and the int
// value]. Returns the run's extent.
SpillRunRef WriteSmallRun(const std::string& path) {
  return WriteRun(path, {{"aa", 1}, {"bb", 2}, {"cc", 3}});
}

TEST(SpillChecksumTest, PayloadBitFlipIsDetected) {
  const std::string path = TempPath("spill_flip_payload.run");
  const SpillRunRef ref = WriteSmallRun(path);
  std::atomic<uint64_t> failures{0};
  std::vector<Record> recovered;
  // Offset 20 is inside the frame body: without the checksum this would
  // decode into a silently wrong record.
  Status s = DrainRun(ref, &recovered,
                      std::make_unique<BitFlipReadIo>(20), &failures);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("checksum"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures.load(), 1u);
  EXPECT_TRUE(recovered.empty());
  RemoveSpillFile(path);
}

TEST(SpillChecksumTest, ChecksumBitFlipIsDetected) {
  const std::string path = TempPath("spill_flip_checksum.run");
  const SpillRunRef ref = WriteSmallRun(path);
  std::atomic<uint64_t> failures{0};
  std::vector<Record> recovered;
  // Offset 13 is inside the stored checksum itself — corruption there
  // must be indistinguishable from payload corruption: a clean error.
  Status s = DrainRun(ref, &recovered,
                      std::make_unique<BitFlipReadIo>(13), &failures);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(failures.load(), 1u);
  EXPECT_TRUE(recovered.empty());
  RemoveSpillFile(path);
}

TEST(SpillChecksumTest, VersionByteFlipIsCleanOpenError) {
  const std::string path = TempPath("spill_flip_version.run");
  const SpillRunRef ref = WriteSmallRun(path);
  std::atomic<uint64_t> failures{0};
  std::vector<Record> recovered;
  // Offset 4 is the header's version byte: an unknown version must be
  // refused at Open, not guessed at.
  Status s = DrainRun(ref, &recovered,
                      std::make_unique<BitFlipReadIo>(4), &failures);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(recovered.empty());
  RemoveSpillFile(path);
}

// ---- Every corruption of a small segment ---------------------------------

TEST(SpillSegmentTest, EveryBitFlipAndCutIsCleanOrExact) {
  // A 3-run segment of small records, read run by run through its extent
  // once per (byte, bit) flip of the file and once per cut. A read must
  // fail with a clean Status or return exactly the run's records: it
  // fails iff the damage lies in the header or inside the run's extent.
  const std::string path = TempPath("spill_sweep.run");
  const std::vector<std::vector<Record>> runs = {
      {{"aa", 1}, {"ab", 2}}, {{"b", 3}}, {{"ca", 4}, {"cb", 5}, {"cc", 6}}};
  std::vector<SpillRunRef> refs(runs.size());
  uint64_t file_size = 0;
  {
    SpillRunWriter<std::string, int> writer(MakeDefaultSpillIo());
    ASSERT_TRUE(writer.Open(path).ok());
    for (size_t r = 0; r < runs.size(); ++r) {
      for (const Record& record : runs[r]) {
        ASSERT_TRUE(writer.Append(record).ok());
      }
      ASSERT_TRUE(writer.EndRun(&refs[r]).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    file_size = writer.bytes_written();
  }
  ASSERT_EQ(file_size, std::filesystem::file_size(path));

  auto check = [&](size_t r, bool damaged, std::unique_ptr<SpillIo> io,
                   const std::string& what) {
    std::vector<Record> recovered;
    const Status s = DrainRun(refs[r], &recovered, std::move(io));
    if (damaged) {
      EXPECT_FALSE(s.ok()) << what << ", run " << r;
    } else {
      EXPECT_TRUE(s.ok()) << what << ", run " << r << ": " << s.ToString();
      EXPECT_EQ(recovered, runs[r]) << what << ", run " << r;
    }
  };
  for (uint64_t offset = 0; offset < file_size; ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      for (size_t r = 0; r < runs.size(); ++r) {
        const bool damaged =
            offset < kSpillHeaderBytes ||
            (offset >= refs[r].offset &&
             offset < refs[r].offset + refs[r].length);
        check(r, damaged,
              std::make_unique<BitFlipReadIo>(
                  offset, static_cast<uint8_t>(1u << bit)),
              "flip " + std::to_string(offset) + "." + std::to_string(bit));
      }
    }
  }
  // TruncatingReadIo(n) ends the stream after n bytes read: the header,
  // then the run's extent.
  for (uint64_t n = 0; n < file_size; ++n) {
    for (size_t r = 0; r < runs.size(); ++r) {
      check(r, n < kSpillHeaderBytes + refs[r].length,
            std::make_unique<TruncatingReadIo>(n),
            "cut " + std::to_string(n));
    }
  }
  RemoveSpillFile(path);
}

// ---- SpillContext ----------------------------------------------------------

TEST(SpillContextTest, OwnsAndCleansItsTempDirectory) {
  std::string dir;
  std::string run_path;
  {
    SpillContext context(/*budget=*/8, /*dir=*/"", /*factory=*/nullptr);
    ASSERT_TRUE(context.Init().ok());
    run_path = context.NewRunPath();
    dir = std::filesystem::path(run_path).parent_path().string();
    SpillRunWriter<std::string, int> writer(context.NewIo());
    SpillRunRef ref;
    ASSERT_TRUE(writer.Open(run_path).ok());
    ASSERT_TRUE(writer.Append({"a", 1}).ok());
    ASSERT_TRUE(writer.EndRun(&ref).ok());
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(std::filesystem::exists(run_path));
    context.AddRunFile(1, writer.bytes_written());
    EXPECT_EQ(context.spill_files(), 1u);
    EXPECT_EQ(context.spilled_records(), 1u);
    EXPECT_EQ(context.spill_bytes(), writer.bytes_written());
  }
  EXPECT_FALSE(std::filesystem::exists(run_path));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SpillContextTest, SegmentFilesLiveUntilTheirLastRunIsReleased) {
  SpillContext context(8, "", nullptr);
  ASSERT_TRUE(context.Init().ok());
  const std::string path = context.NewRunPath();
  {
    SpillRunWriter<std::string, int> writer(context.NewIo());
    SpillRunRef ref;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({"a", 1}).ok());
    ASSERT_TRUE(writer.EndRun(&ref).ok());
    ASSERT_TRUE(writer.Append({"b", 2}).ok());
    ASSERT_TRUE(writer.EndRun(&ref).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  context.RegisterRuns(path, 2);
  // A merge consuming partition 0's run must not delete the segment file
  // still backing partition 1's run.
  context.ReleaseRun(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  context.ReleaseRun(path);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillContextTest, FirstErrorIsSticky) {
  SpillContext context(8, "", nullptr);
  ASSERT_TRUE(context.Init().ok());
  EXPECT_TRUE(context.status().ok());
  context.RecordError(Status::ResourceExhausted("first"));
  context.RecordError(Status::Internal("second"));
  EXPECT_EQ(context.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(context.status().message(), "first");
}

// ---- Engine-level fault contract -------------------------------------------

// The canonical sorted job used by the engine-level fault tests.
std::vector<std::pair<int, int>> KeySums(
    const std::vector<int>& inputs, const MapReduceOptions& options,
    JobStats* stats) {
  auto result = RunMapReduceSorted<int, int, int, std::pair<int, int>>(
      "spill-fault-sums", inputs,
      [](const int& v, PartitionedEmitter<int, int>* out) {
        out->Emit(v % 13, v);
      },
      [](const int& key, std::span<int> values,
         std::vector<std::pair<int, int>>* out) {
        int total = 0;
        for (int v : values) total += v;
        out->emplace_back(key, total);
      },
      options, stats);
  std::sort(result.begin(), result.end());
  return result;
}

TEST(SpillFaultTest, FailedSpillWritesFallBackToMemoryWithoutRecordLoss) {
  std::vector<int> inputs(500);
  for (int i = 0; i < 500; ++i) inputs[i] = i;
  const auto reference = KeySums(inputs, {}, nullptr);

  MapReduceOptions options;
  options.num_workers = 2;
  options.memory_budget_records = 8;  // forces spill attempts
  options.spill_io_factory = [] {
    return std::make_unique<FaultyWriteIo>(0, /*enospc=*/true);
  };
  JobStats stats;
  const auto faulted = KeySums(inputs, options, &stats);
  // Every write failed, so nothing spilled — the records stayed in
  // memory and the job's output is complete and identical...
  EXPECT_EQ(faulted, reference);
  EXPECT_EQ(stats.spilled_records, 0u);
  // ...while the fault is reported, not swallowed.
  EXPECT_FALSE(stats.spill_status.ok());
  EXPECT_EQ(stats.spill_status.code(), StatusCode::kResourceExhausted);
  // A degraded write fault is NOT data loss: pipelines must keep the
  // (complete, correct) result rather than discard it.
  EXPECT_TRUE(stats.spill_data_loss.ok());
}

TEST(SpillFaultTest, FailedSpillReadsAreReportedNotSilent) {
  std::vector<int> inputs(500);
  for (int i = 0; i < 500; ++i) inputs[i] = i;

  // Writes intact; reads end after `read_limit` bytes — a torn run as
  // seen by the merge. 32 bytes cut into the first frame; 8 end right
  // after the header, at a frame boundary.
  for (const size_t read_limit : {size_t{32}, size_t{8}}) {
    SCOPED_TRACE("read limit " + std::to_string(read_limit));
    MapReduceOptions options;
    options.num_workers = 1;
    options.memory_budget_records = 8;
    options.spill_io_factory = [read_limit] {
      return std::make_unique<TruncatingReadIo>(read_limit);
    };
    JobStats stats;
    KeySums(inputs, options, &stats);
    EXPECT_GT(stats.spilled_records, 0u);  // runs were written...
    EXPECT_FALSE(stats.spill_status.ok());  // ...and the torn read reported
    EXPECT_EQ(stats.spill_status.code(), StatusCode::kInternal);
    // A failed read IS potential data loss: the lossy status that must
    // fail any pipeline consuming this job's output.
    EXPECT_FALSE(stats.spill_data_loss.ok());
  }
}

TEST(SpillFaultTest, PayloadBitFlipIsDataLossNeverASilentWrongAnswer) {
  std::vector<int> inputs(500);
  for (int i = 0; i < 500; ++i) inputs[i] = i;

  MapReduceOptions options;
  options.num_workers = 1;
  options.memory_budget_records = 8;
  options.spill_io_factory = [] {
    // Writes land intact; every file read back has one bit flipped at
    // offset 20 — inside the first frame's checksummed body for every
    // run layout this job writes.
    return std::make_unique<BitFlipReadIo>(20);
  };
  JobStats stats;
  KeySums(inputs, options, &stats);  // must complete, never crash
  EXPECT_GT(stats.spilled_records, 0u);
  // The flip was caught by the frame checksum and reported as the
  // lossy fault class (outputs may be incomplete) — the one that must
  // fail consuming pipelines. Silent wrong answers are not an option.
  EXPECT_FALSE(stats.spill_data_loss.ok());
  EXPECT_GE(stats.checksum_failures, 1u);
}

TEST(SpillFaultTest, HealthySpillIsLosslessAndReportsCounters) {
  std::vector<int> inputs(800);
  for (int i = 0; i < 800; ++i) inputs[i] = i;
  const auto reference = KeySums(inputs, {}, nullptr);

  MapReduceOptions options;
  options.num_workers = 2;
  options.memory_budget_records = 16;
  JobStats stats;
  const auto spilled = KeySums(inputs, options, &stats);
  EXPECT_EQ(spilled, reference);
  EXPECT_TRUE(stats.spill_status.ok()) << stats.spill_status.ToString();
  EXPECT_GT(stats.spilled_records, 0u);
  EXPECT_GT(stats.spill_files, 1u);
  EXPECT_GT(stats.spill_bytes, 0u);
  // Each (int, int) record takes 8 bytes on disk, before any framing.
  EXPECT_GE(stats.spill_bytes, 8 * stats.spilled_records);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_GT(stats.merge_passes, 0u);
  EXPECT_GT(stats.peak_resident_records, 0u);
  // The budget held: resident records never exceeded the budget plus the
  // slack of one merge window per reduce worker and the one-record flush
  // overshoot per producer (see JobStats::peak_resident_records). Groups
  // here hold at most ceil(800/13) values.
  const uint64_t slack = 2 * 62 + 8;
  EXPECT_LE(stats.peak_resident_records,
            options.memory_budget_records + slack);
  // Records on disk plus the in-memory rest account for every record.
  EXPECT_EQ(stats.map_output_records, 800u);
}

}  // namespace
}  // namespace tsj
