// Crash-safe checkpoint/resume for the per-source sweeps.
//
// One process-wide store maps sweep keys ("<kind>:<fingerprint>") to the
// records of their completed sources. Arm it with
// `SNTRUST_CHECKPOINT=<path>` (or `sntrust_cli --checkpoint/--resume`): every
// checkpointed sweep then (a) restores completed sources from a matching
// entry before computing anything, and (b) persists its completed records —
// periodically, when a cancellation or a throwing source stops the sweep,
// and on completion. Writes are atomic
// (temp file + fsync + rename), so a crash can lose at most the sources
// completed since the last flush, never the file.
//
// A record is a source's result as 64-bit words (exec::Record). The store is
// the one place that encodes them: each record is one lowercase hex string,
// 16 digits per word, so a restored record is the computed record's bits.
//
// File schema (version 2):
//   { "schema_version": 2,
//     "sweeps": { "<kind>:<fingerprint-hex16>":
//                   { "fingerprint": "<hex16>", "items": N,
//                     "completed": { "<index>": "<hex16 per word>", ... } },
//                 ... },
//     "crc32": "<hex8 of the dumped sweeps object>" }
//
// A checkpoint that fails to parse, carries another schema version (a
// version-1 file included), or whose CRC does not match its sweeps object
// is ignored (the run starts fresh and overwrites it) — never a crash. An
// entry whose fingerprint, item count or completed map is malformed is
// skipped, as is a completed index that is not a decimal below the item
// count. A completed value that is not a hex string of 16 digits per word
// makes the load throw std::runtime_error naming the file and the sweep,
// and every restore and save throws it again until the path changes. Per-
// sweep entries are only restored when both the fingerprint and the item
// count match the requesting sweep, so a checkpoint from a different
// graph/config falls through to a fresh run. The CRC guards against
// truncation and corruption, not against a writer that stamps it: the
// measuring module checks each restored record's shape before it uses it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sntrust::exec {

inline constexpr std::int64_t kCheckpointSchemaVersion = 2;

/// One source's result. A double travels as its bits (std::bit_cast).
using Record = std::vector<std::uint64_t>;

/// Completed records by source index.
using Records = std::map<std::uint64_t, Record>;

class CheckpointStore {
 public:
  /// Process-wide store; reads SNTRUST_CHECKPOINT on first use.
  static CheckpointStore& instance();

  /// Sets (or, with "", disarms) the checkpoint path. Changing the path
  /// drops in-memory state; the file at the new path is loaded lazily on
  /// the next restore.
  void set_path(std::string path);
  std::string path() const;
  bool armed() const;

  /// The stored records of a matching sweep, by index; empty when the
  /// store is disarmed or holds no entry with this kind, fingerprint and
  /// item count.
  Records restore(const std::string& kind, std::uint64_t fingerprint,
                  std::uint64_t items);

  /// Replaces the sweep's entry with `completed` and atomically rewrites
  /// the checkpoint file. No-op when disarmed.
  void save(const std::string& kind, std::uint64_t fingerprint,
            std::uint64_t items, Records completed);

  /// Drops all in-memory state and re-arms from SNTRUST_CHECKPOINT (tests).
  void reset_for_tests();

 private:
  CheckpointStore();

  struct Entry {
    std::uint64_t fingerprint = 0;
    std::uint64_t items = 0;
    Records completed;
  };

  void load_locked();
  void write_locked() const;

  mutable std::mutex mutex_;
  std::string path_;
  bool loaded_ = false;
  std::map<std::string, Entry> sweeps_;
};

/// Fold of configuration words into a sweep fingerprint (splitmix64 chain;
/// order is significant).
std::uint64_t fingerprint(std::initializer_list<std::uint64_t> words);

/// CRC-32 (IEEE, reflected) of `data`; exposed for tests.
std::uint32_t crc32(const std::string& data);

}  // namespace sntrust::exec
