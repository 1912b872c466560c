#include "mapreduce/spill.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/fault.h"
#include "common/hash.h"
#include "common/parse.h"

namespace tsj {

namespace {

// strerror_r comes in two signatures (XSI returns int, GNU returns
// char*); overload resolution picks the right adapter, so this stays
// thread-safe on both without feature-macro guessing (std::strerror is
// not safe across concurrent producers).
[[maybe_unused]] const char* StrerrorAdapt(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char* StrerrorAdapt(const char* message,
                                           const char*) {
  return message;
}

std::string ErrnoMessage(int err) {
  char buf[256];
  buf[0] = '\0';
  return StrerrorAdapt(strerror_r(err, buf, sizeof(buf)), buf);
}

// Buffered FILE*-backed byte stream: the production SpillIo.
class FileSpillIo final : public SpillIo {
 public:
  ~FileSpillIo() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Open(const std::string& path, bool for_write) override {
    if (file_ != nullptr) {
      return Status::FailedPrecondition("spill io already open");
    }
    errno = 0;
    file_ = std::fopen(path.c_str(), for_write ? "wb" : "rb");
    if (file_ == nullptr) {
      return Status::Internal("cannot open spill file " + path + ": " +
                              ErrnoMessage(errno));
    }
    return Status::OK();
  }

  StatusOr<size_t> Write(const char* data, size_t size) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("spill io not open");
    }
    // fwrite only sets errno on failure; a stale value from an earlier
    // unrelated call would otherwise misclassify the error below.
    errno = 0;
    const size_t written = std::fwrite(data, 1, size, file_);
    if (written < size && std::ferror(file_) != 0) {
      if (errno == ENOSPC) {
        return Status::ResourceExhausted("spill write: disk full");
      }
      // Preserve the real errno (EIO, EDQUOT, ...) instead of letting the
      // frame layer misreport a device error as a generic short write.
      return Status::Internal(std::string("spill write failed: ") +
                              ErrnoMessage(errno));
    }
    return written;  // short writes are diagnosed by the frame layer
  }

  StatusOr<size_t> Read(char* data, size_t size) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("spill io not open");
    }
    errno = 0;
    const size_t read = std::fread(data, 1, size, file_);
    if (read < size && std::ferror(file_) != 0) {
      return Status::Internal(std::string("spill read failed: ") +
                              ErrnoMessage(errno));
    }
    return read;
  }

  Status Seek(uint64_t offset) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("spill io not open");
    }
    errno = 0;
    if (fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
      return Status::Internal(std::string("spill seek failed: ") +
                              ErrnoMessage(errno));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    errno = 0;
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      return Status::Internal(std::string("spill close failed: ") +
                              ErrnoMessage(errno));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_ = nullptr;
};

// The checksum stored per frame: Fingerprint64 of the body as it sits on
// disk, folded to 32 bits (either half alone would still be FNV-quality;
// the fold keeps both halves contributing).
uint32_t FrameChecksum(const char* body, size_t size) {
  const uint64_t h = Fingerprint64(std::string_view(body, size));
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void AppendU32(uint32_t value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

uint32_t LoadU32(const char* p) {
  uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

// Reads exactly `size` bytes from `io` unless EOF intervenes.
StatusOr<size_t> IoReadFully(SpillIo* io, char* data, size_t size) {
  size_t total = 0;
  while (total < size) {
    StatusOr<size_t> read = io->Read(data + total, size - total);
    if (!read.ok()) return read.status();
    if (*read == 0) break;  // end of file
    total += *read;
  }
  return total;
}

}  // namespace

std::unique_ptr<SpillIo> MakeDefaultSpillIo() {
  return std::make_unique<FileSpillIo>();
}

size_t ParseSpillBudget(const char* value) {
  return static_cast<size_t>(ParsePositiveInt(
      value, static_cast<uint64_t>(std::numeric_limits<size_t>::max())));
}

size_t SpillBudgetFromEnv() {
  static const size_t budget =
      ParseSpillBudget(std::getenv("CC_SHUFFLE_SPILL_BUDGET"));
  return budget;
}

void RemoveSpillFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);  // best effort
}

// ---- SpillFrameWriter ------------------------------------------------------

namespace {
// Runs accumulate in this buffer before hitting the io; one io Write per
// ~256 KiB keeps the seam call count (and fault-injection granularity)
// reasonable without holding large buffers per producer.
constexpr size_t kSpillWriteBufferBytes = 256 * 1024;
}  // namespace

SpillFrameWriter::SpillFrameWriter(std::unique_ptr<SpillIo> io)
    : io_(std::move(io)) {}

SpillFrameWriter::~SpillFrameWriter() {
  if (open_) io_->Close();  // error already reported via Finish, or Finish
                            // was never reached: nothing more to do with it
}

Status SpillFrameWriter::Open(const std::string& path) {
  Status s = io_->Open(path, /*for_write=*/true);
  open_ = s.ok();
  if (!open_) return s;
  AppendU32(kSpillMagic, &buffer_);
  const char tail[4] = {static_cast<char>(kSpillFormatVersion),
                        static_cast<char>(kSpillFlags), 0, 0};
  buffer_.append(tail, sizeof(tail));
  appended_ = kSpillHeaderBytes;
  return Status::OK();
}

Status SpillFrameWriter::WriteFrame(const char* payload, size_t size) {
  if (!open_) return Status::FailedPrecondition("spill writer not open");
  if (size > kMaxSpillFrameBytes) {
    return Status::InvalidArgument("spill frame larger than the format cap");
  }
  const size_t before = buffer_.size();
  spill_internal::AppendVarint(size, &buffer_);
  AppendU32(FrameChecksum(payload, size), &buffer_);
  buffer_.append(payload, size);
  appended_ += buffer_.size() - before;
  if (buffer_.size() >= kSpillWriteBufferBytes) return FlushBuffer();
  return Status::OK();
}

Status SpillFrameWriter::FlushBuffer() {
  size_t offset = 0;
  while (offset < buffer_.size()) {
    StatusOr<size_t> written =
        io_->Write(buffer_.data() + offset, buffer_.size() - offset);
    if (!written.ok() || *written == 0) {
      // Drop the already-consumed prefix so a later flush (Finish after
      // a transient error) cannot re-write those bytes and duplicate
      // partial frames in the run.
      buffer_.erase(0, offset);
      if (!written.ok()) return written.status();
      return Status::ResourceExhausted(
          "spill write made no progress (short write)");
    }
    offset += *written;
  }
  buffer_.clear();
  return Status::OK();
}

Status SpillFrameWriter::Finish() {
  if (!open_) return Status::FailedPrecondition("spill writer not open");
  Status s = FlushBuffer();
  open_ = false;
  Status close_status = io_->Close();
  if (!s.ok()) return s;
  return close_status;
}

// ---- SpillFrameReader ------------------------------------------------------

namespace {
// One read chunk. Small runs read in one chunk; big merge inputs stream
// through it.
constexpr size_t kSpillReadChunkBytes = 256 * 1024;
}  // namespace

SpillFrameReader::SpillFrameReader(std::unique_ptr<SpillIo> io)
    : io_(std::move(io)) {}

SpillFrameReader::~SpillFrameReader() {
  if (open_) io_->Close();
}

Status SpillFrameReader::Open(const SpillRunRef& ref) {
  Status s = io_->Open(ref.path, /*for_write=*/false);
  open_ = s.ok();
  if (!open_) return s;
  char header[kSpillHeaderBytes];
  StatusOr<size_t> got = IoReadFully(io_.get(), header, sizeof(header));
  if (!got.ok()) return got.status();
  if (*got < sizeof(header) || LoadU32(header) != kSpillMagic) {
    return Status::Internal("not a spill segment (torn or corrupt header)");
  }
  if (static_cast<uint8_t>(header[4]) != kSpillFormatVersion) {
    return Status::Internal("unsupported spill format version");
  }
  if (static_cast<uint8_t>(header[5]) != kSpillFlags || header[6] != 0 ||
      header[7] != 0) {
    return Status::Internal("corrupt spill segment header");
  }
  // A run's frames sit past the header; an extent that starts inside it
  // or wraps around is corrupt, not a request to read the file.
  if (ref.offset < kSpillHeaderBytes ||
      ref.length > ~uint64_t{0} - ref.offset) {
    return Status::Internal("corrupt spill run extent");
  }
  if (Status ss = io_->Seek(ref.offset); !ss.ok()) return ss;
  limit_ = ref.length;
  return Status::OK();
}

// Copies up to `size` bytes of the extent out of the chunked stream.
// *read < size only where the extent ends (limit_ == 0) or where the file
// ends inside it (limit_ > 0).
Status SpillFrameReader::ReadBytes(char* data, size_t size, size_t* read) {
  size_t total = 0;
  while (total < size) {
    if (chunk_pos_ == chunk_.size()) {
      if (limit_ == 0) break;
      chunk_.resize(static_cast<size_t>(
          std::min<uint64_t>(kSpillReadChunkBytes, limit_)));
      chunk_pos_ = 0;
      StatusOr<size_t> got =
          IoReadFully(io_.get(), chunk_.data(), chunk_.size());
      if (!got.ok()) {
        chunk_.clear();
        return got.status();
      }
      chunk_.resize(*got);
      limit_ -= *got;
      if (chunk_.empty()) break;
    }
    const size_t take =
        std::min(size - total, chunk_.size() - chunk_pos_);
    std::memcpy(data + total, chunk_.data() + chunk_pos_, take);
    chunk_pos_ += take;
    total += take;
  }
  *read = total;
  return Status::OK();
}

Status SpillFrameReader::ReadFrame(std::string* payload, bool* eof) {
  if (!open_) return Status::FailedPrecondition("spill reader not open");
  *eof = false;
  // Frame: [varint body_size][u32 checksum][body].
  uint64_t body_size = 0;
  {
    uint64_t result = 0;
    int shift = 0;
    while (true) {
      char byte = 0;
      size_t got = 0;
      if (Status s = ReadBytes(&byte, 1, &got); !s.ok()) return s;
      if (got == 0) {
        if (shift > 0) return Status::Internal("truncated spill frame header");
        if (limit_ > 0) {
          return Status::Internal(
              "torn spill run: the file ends inside the run's extent");
        }
        *eof = true;  // the extent ends between frames
        return Status::OK();
      }
      const uint8_t b = static_cast<uint8_t>(byte);
      result |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        return Status::Internal("corrupt spill frame length prefix");
      }
    }
    body_size = result;
  }
  if (body_size > kMaxSpillFrameBytes) {
    return Status::Internal("corrupt spill frame length prefix");
  }
  uint32_t stored_checksum = 0;
  size_t got = 0;
  if (Status s = ReadBytes(reinterpret_cast<char*>(&stored_checksum),
                           sizeof(stored_checksum), &got);
      !s.ok()) {
    return s;
  }
  if (got < sizeof(stored_checksum)) {
    return Status::Internal("truncated spill frame header");
  }
  payload->resize(body_size);
  got = 0;
  if (Status s = ReadBytes(payload->data(), body_size, &got); !s.ok()) {
    return s;
  }
  if (got < body_size) {
    return Status::Internal(
        "torn spill frame: payload shorter than its length prefix");
  }
  if (FrameChecksum(payload->data(), payload->size()) != stored_checksum) {
    if (checksum_failures_ != nullptr) {
      checksum_failures_->fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Internal(
        "spill frame checksum mismatch (corrupt payload)");
  }
  return Status::OK();
}

Status SpillFrameReader::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  return io_->Close();
}

// ---- SpillContext ----------------------------------------------------------

SpillContext::SpillContext(size_t budget, std::string dir,
                           SpillIoFactory factory)
    : budget_(budget),
      dir_(std::move(dir)),
      factory_(std::move(factory)),
      tag_(Mix64(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)) ^
                 (static_cast<uint64_t>(::getpid()) << 32))) {}

SpillContext::~SpillContext() {
  // Every file this context ever named is removed (runs are per-job); an
  // owned temp directory goes with them. All best effort: teardown must
  // not fail a job that already reported its real error.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& path : created_paths_) RemoveSpillFile(path);
  }
  if (owns_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

Status SpillContext::Init() {
  std::error_code ec;
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      return Status::Internal("cannot create spill dir " + dir_ + ": " +
                              ec.message());
    }
    return Status::OK();
  }
  // Owned unique temp directory; pid + address + attempt make the name
  // unique across concurrent jobs and processes.
  const std::filesystem::path base =
      std::filesystem::temp_directory_path(ec);
  if (ec) {
    return Status::Internal("no temp directory for spill: " + ec.message());
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    char name[64];
    std::snprintf(name, sizeof(name), "tsj-spill-%016llx-%d",
                  static_cast<unsigned long long>(tag_), attempt);
    const std::filesystem::path candidate = base / name;
    if (std::filesystem::create_directory(candidate, ec)) {
      dir_ = candidate.string();
      owns_dir_ = true;
      return Status::OK();
    }
  }
  return Status::Internal("cannot create a unique spill temp directory");
}

std::string SpillContext::NewRunPath() {
  const uint64_t seq = file_seq_.fetch_add(1, std::memory_order_relaxed);
  char name[64];
  // The context tag keeps concurrent jobs sharing one explicit spill_dir
  // from overwriting (and later deleting) each other's runs.
  std::snprintf(name, sizeof(name), "/run-%016llx-%llu.spill",
                static_cast<unsigned long long>(tag_),
                static_cast<unsigned long long>(seq));
  std::string path = dir_ + name;
  std::lock_guard<std::mutex> lock(mutex_);
  created_paths_.push_back(path);
  return path;
}

namespace {

// Routes every spill I/O stream through the process-wide deterministic
// fault injector (common/fault.h): "spill.open" on Open, "spill.write" on
// Write, "merge.read" on Read. Wraps whatever io the context would hand
// out — the default FILE* io or a test-installed spill_io_factory — so
// the engine's CC_FAULT_SPEC harness and the test seams compose: an
// injected write fault follows the degraded contract (the emitter keeps
// the records in memory), an injected read fault the lossy one.
class FaultInjectingSpillIo final : public SpillIo {
 public:
  explicit FaultInjectingSpillIo(std::unique_ptr<SpillIo> inner)
      : inner_(std::move(inner)) {}

  Status Open(const std::string& path, bool for_write) override {
    if (Status s = FAULT_POINT("spill.open"); !s.ok()) return s;
    return inner_->Open(path, for_write);
  }
  StatusOr<size_t> Write(const char* data, size_t size) override {
    if (Status s = FAULT_POINT("spill.write"); !s.ok()) return s;
    return inner_->Write(data, size);
  }
  StatusOr<size_t> Read(char* data, size_t size) override {
    if (Status s = FAULT_POINT("merge.read"); !s.ok()) return s;
    return inner_->Read(data, size);
  }
  Status Seek(uint64_t offset) override { return inner_->Seek(offset); }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SpillIo> inner_;
};

}  // namespace

std::unique_ptr<SpillIo> SpillContext::NewIo() const {
  std::unique_ptr<SpillIo> io =
      factory_ ? factory_() : MakeDefaultSpillIo();
  if (FaultInjector::Global().enabled()) {
    io = std::make_unique<FaultInjectingSpillIo>(std::move(io));
  }
  return io;
}

void SpillContext::RegisterRuns(const std::string& path, uint64_t runs) {
  if (runs == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  live_runs_[path] += runs;
}

void SpillContext::ReleaseRun(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_runs_.find(path);
    if (it != live_runs_.end()) {
      if (--it->second > 0) return;  // segment still backs other runs
      live_runs_.erase(it);
    }
  }
  RemoveSpillFile(path);
}

void SpillContext::RecordError(const Status& status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_.ok()) error_ = status;
}

void SpillContext::RecordDataLoss(const Status& status) {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_.ok()) error_ = status;
  if (data_loss_.ok()) data_loss_ = status;
}

Status SpillContext::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

Status SpillContext::data_loss() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_loss_;
}

}  // namespace tsj
