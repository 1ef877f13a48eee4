#include "graph/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SNTRUST_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sntrust {

namespace {

constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kHeaderCrcOffset = 44;

/// CRC-32 (IEEE, reflected) over raw bytes — table-identical to
/// exec::crc32, but streaming over a pointer range so multi-GB payloads
/// never get copied into a std::string.
std::uint32_t crc32_bytes(const std::uint8_t* data, std::size_t size,
                          std::uint32_t seed = 0xffffffffu) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = seed;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

template <typename T>
void put_pod(std::uint8_t* base, std::size_t offset, T value) {
  std::memcpy(base + offset, &value, sizeof value);
}

template <typename T>
T get_pod(const std::uint8_t* base, std::size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof value);
  return value;
}

struct ParsedHeader {
  SnapshotInfo info;
  std::uint64_t payload_bytes = 0;
};

/// Validates the 64-byte header against the actual file size. Throws
/// IoError on any mismatch — before anything is allocated or mapped.
ParsedHeader parse_header(const std::uint8_t* header, std::uint64_t file_size,
                          const std::string& path) {
  if (file_size < kHeaderBytes)
    throw IoError("snapshot: file shorter than its header: " + path);
  if (get_pod<std::uint64_t>(header, 0) != kSnapshotMagic)
    throw IoError("snapshot: bad magic in " + path);
  const auto endian = get_pod<std::uint32_t>(header, 12);
  if (endian != kEndianTag)
    throw IoError("snapshot: foreign byte order (endian tag " +
                  std::to_string(endian) + ") in " + path);
  const std::uint32_t stored_header_crc =
      get_pod<std::uint32_t>(header, kHeaderCrcOffset);
  std::uint8_t scratch[kHeaderBytes];
  std::memcpy(scratch, header, kHeaderCrcOffset);
  if (crc32_bytes(scratch, kHeaderCrcOffset) != stored_header_crc)
    throw IoError("snapshot: header CRC mismatch in " + path);

  ParsedHeader parsed;
  parsed.info.version = get_pod<std::uint32_t>(header, 8);
  if (parsed.info.version != kSnapshotVersion)
    throw IoError("snapshot: unsupported version " +
                  std::to_string(parsed.info.version) + " in " + path);
  parsed.info.num_vertices = get_pod<std::uint64_t>(header, 16);
  parsed.info.half_edges = get_pod<std::uint64_t>(header, 24);
  parsed.info.fingerprint = get_pod<std::uint64_t>(header, 32);
  parsed.info.payload_crc = get_pod<std::uint32_t>(header, 40);
  parsed.info.file_bytes = file_size;

  const std::uint64_t n = parsed.info.num_vertices;
  if (n > std::numeric_limits<VertexId>::max())
    throw IoError("snapshot: vertex count " + std::to_string(n) +
                  " overflows the 32-bit vertex id space in " + path);
  if (parsed.info.half_edges % 2 != 0)
    throw IoError("snapshot: odd half-edge count in " + path);
  parsed.payload_bytes = (n + 1) * sizeof(EdgeIndex) +
                         parsed.info.half_edges * sizeof(VertexId);
  if (file_size != kHeaderBytes + parsed.payload_bytes)
    throw IoError("snapshot: header (n=" + std::to_string(n) + ", half_edges=" +
                  std::to_string(parsed.info.half_edges) + ") expects " +
                  std::to_string(kHeaderBytes + parsed.payload_bytes) +
                  " bytes but file has " + std::to_string(file_size) + ": " +
                  path);
  return parsed;
}

/// Read-only file mapping (heap-buffer fallback off unix); doubles as the
/// Graph keepalive so the mapping outlives every copy of the graph.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
#ifdef SNTRUST_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw IoError("cannot open snapshot: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw IoError("cannot stat snapshot: " + path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0) {
      void* mapped =
          ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
      if (mapped == MAP_FAILED) {
        ::close(fd);
        throw IoError("cannot mmap snapshot: " + path);
      }
      data_ = static_cast<const std::uint8_t*>(mapped);
    }
    ::close(fd);
#else
    std::ifstream in{path, std::ios::binary | std::ios::ate};
    if (!in) throw IoError("cannot open snapshot: " + path);
    size_ = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    buffer_.resize(size_);
    in.read(reinterpret_cast<char*>(buffer_.data()),
            static_cast<std::streamsize>(size_));
    if (!in) throw IoError("snapshot: truncated file " + path);
    data_ = buffer_.data();
#endif
  }

  ~MappedFile() {
#ifdef SNTRUST_HAVE_MMAP
    if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const noexcept { return data_; }
  std::uint64_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
#ifndef SNTRUST_HAVE_MMAP
  std::vector<std::uint8_t> buffer_;
#endif
};

}  // namespace

void write_snapshot(const Graph& g, const std::string& path) {
  const obs::Span span{"io.write_snapshot", "io"};
  const auto offsets = g.offsets();
  const auto targets = g.targets();

  std::uint8_t header[kHeaderBytes] = {};
  put_pod(header, 0, kSnapshotMagic);
  put_pod(header, 8, kSnapshotVersion);
  put_pod(header, 12, kEndianTag);
  put_pod(header, 16, static_cast<std::uint64_t>(g.num_vertices()));
  put_pod(header, 24, static_cast<std::uint64_t>(targets.size()));
  put_pod(header, 32, g.fingerprint());

  // Payload CRC streamed across both arrays without materializing them.
  std::uint32_t crc =
      crc32_bytes(reinterpret_cast<const std::uint8_t*>(offsets.data()),
                  offsets.size_bytes());
  crc = crc32_bytes(reinterpret_cast<const std::uint8_t*>(targets.data()),
                    targets.size_bytes(), crc ^ 0xffffffffu);
  put_pod(header, 40, crc);
  put_pod(header, kHeaderCrcOffset, crc32_bytes(header, kHeaderCrcOffset));

  // Atomic publish: temp file + fsync + rename, mirroring exec/checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw IoError("cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
    out.write(reinterpret_cast<const char*>(offsets.data()),
              static_cast<std::streamsize>(offsets.size_bytes()));
    out.write(reinterpret_cast<const char*>(targets.data()),
              static_cast<std::streamsize>(targets.size_bytes()));
    if (!out) throw IoError("write failed: " + tmp);
  }
#ifdef SNTRUST_HAVE_MMAP
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw IoError("cannot rename " + tmp + " to " + path);
  obs::count("io.snapshots_written", 1);
}

Graph load_snapshot(const std::string& path, VerifyPayload verify) {
  const obs::Span span{"io.load_snapshot", "io"};
  auto mapping = std::make_shared<MappedFile>(path);
  const ParsedHeader parsed =
      parse_header(mapping->data(), mapping->size(), path);

  if (verify == VerifyPayload::kFull &&
      crc32_bytes(mapping->data() + kHeaderBytes, parsed.payload_bytes) !=
          parsed.info.payload_crc)
    throw IoError("snapshot: payload CRC mismatch in " + path);

  const auto* offsets_ptr =
      reinterpret_cast<const EdgeIndex*>(mapping->data() + kHeaderBytes);
  const auto* targets_ptr = reinterpret_cast<const VertexId*>(
      mapping->data() + kHeaderBytes +
      (parsed.info.num_vertices + 1) * sizeof(EdgeIndex));
  const std::uint64_t stored_fingerprint = parsed.info.fingerprint;
  Graph g = Graph::adopt(
      {offsets_ptr, static_cast<std::size_t>(parsed.info.num_vertices + 1)},
      {targets_ptr, static_cast<std::size_t>(parsed.info.half_edges)},
      std::move(mapping), /*deep_validate=*/false);
  g.set_cached_fingerprint(stored_fingerprint);
  obs::count("io.snapshots_loaded", 1);
  return g;
}

SnapshotInfo snapshot_info(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw IoError("cannot open snapshot: " + path);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint8_t header[kHeaderBytes] = {};
  in.read(reinterpret_cast<char*>(header),
          static_cast<std::streamsize>(
              std::min<std::uint64_t>(kHeaderBytes, file_size)));
  return parse_header(header, file_size, path).info;
}

bool is_snapshot_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  return in && magic == kSnapshotMagic;
}

}  // namespace sntrust
