// Zero-copy memory-mapped graph snapshots.
//
// A snapshot is the CSR of a validated Graph laid out so the file can be
// mmap'd read-only and adopted in place (Graph::adopt): a 64-byte header,
// then the offsets array ((n+1) x u64) at a 64-byte-aligned position, then
// the targets array (2m x u32). Loading a multi-GB graph is therefore a
// handful of syscalls — milliseconds instead of re-parsing — and concurrent
// processes (the 8 benches, the CI perf-smoke job) share one page-cache
// copy of the adjacency.
//
// Format v1 (all fields little-endian; big-endian hosts are rejected at
// both ends rather than byte-swapped):
//
//   [ 0) magic     u64  "SNTRSNP1"
//   [ 8) version   u32  1
//   [12) endian    u32  0x01020304 as written by the producer
//   [16) n         u64
//   [24) halfedges u64  2m
//   [32) fingerprint u64  Graph::fingerprint() of the contents
//   [40) payload_crc u32  CRC-32 (IEEE) of the payload region
//   [44) header_crc  u32  CRC-32 of bytes [0, 44)
//   [48) reserved  u64 x 2, zero
//   [64) payload: offsets, then targets
//
// Integrity: the header CRC is always verified, and the header's implied
// payload size must match the file exactly — truncation and header
// corruption are rejected up front via IoError. The payload CRC makes any
// byte flip detectable, but hashing gigabytes would defeat the
// milliseconds-load contract, so it is verified on demand: by
// `sntrust_snapshot verify`, or when VerifyPayload::kFull is requested.
// The stored fingerprint seeds the graph's fingerprint cache, so exec/
// checkpoints resume identically whether the graph was parsed or mapped.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace sntrust {

inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Leading magic ("SNTRSNP1" as a little-endian u64), which no text edge
/// list starts with, so read_graph_auto can sniff the format.
inline constexpr std::uint64_t kSnapshotMagic = 0x31504e5352544e53ULL;

/// Parsed snapshot header (also returned by snapshot_info for tooling).
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t half_edges = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t payload_crc = 0;
  std::uint64_t file_bytes = 0;
};

enum class VerifyPayload {
  kSkip,  ///< trust the header CRC and the exact-size check
  kFull,  ///< CRC the whole payload before adopting it
};

/// Writes `g` as a snapshot via temp file + fsync + rename (never leaves a
/// torn file). Throws IoError on I/O failure.
void write_snapshot(const Graph& g, const std::string& path);

/// Maps `path` read-only and adopts the CSR in place (falls back to a heap
/// read where mmap is unavailable). Throws IoError on malformed, truncated,
/// corrupted, foreign-endian, or unknown-version snapshots.
Graph load_snapshot(const std::string& path,
                    VerifyPayload verify = VerifyPayload::kSkip);

/// Reads and validates only the header. Throws IoError as load_snapshot.
SnapshotInfo snapshot_info(const std::string& path);

/// True when the file starts with the snapshot magic (cheap sniff; false
/// for unreadable or short files).
bool is_snapshot_file(const std::string& path);

}  // namespace sntrust
