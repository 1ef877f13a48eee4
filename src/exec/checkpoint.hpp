// Crash-safe checkpoint/resume for the per-source sweeps.
//
// One process-wide store maps sweep keys ("<kind>:<fingerprint>") to the
// JSON payloads of their completed sources. Arm it with
// `SNTRUST_CHECKPOINT=<path>` (or `sntrust_cli --checkpoint/--resume`): every
// checkpointed sweep then (a) restores completed sources from a matching
// entry before computing anything, and (b) persists its completed payloads —
// periodically, when a cancellation or a throwing source stops the sweep,
// and on completion. Writes are atomic
// (temp file + fsync + rename), so a crash can lose at most the sources
// completed since the last flush, never the file.
//
// File schema (version 1):
//   { "schema_version": 1,
//     "sweeps": { "<kind>:<fingerprint-hex>":
//                   { "fingerprint": "<hex16>", "items": N,
//                     "completed": { "<index>": <payload>, ... } }, ... },
//     "crc32": "<hex8 of the dumped sweeps object>" }
//
// A checkpoint that fails to parse, carries an unknown schema version, or
// whose CRC does not match its payload is ignored (the run starts fresh and
// overwrites it) — never a crash. Per-sweep entries are only restored when
// both the fingerprint and the item count match the requesting sweep, so a
// checkpoint from a different graph/config silently falls through to a
// fresh run. Restored payloads are re-dumped from the parsed document, so a
// resumed aggregate consumes byte-identical JSON to the run that wrote it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sntrust::exec {

inline constexpr std::int64_t kCheckpointSchemaVersion = 1;

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

  /// Copies the stored payloads of a matching sweep into `payloads`
  /// (pre-sized to `items`; untouched slots stay empty). Returns the number
  /// of restored sources.
  std::uint64_t restore(const std::string& kind, std::uint64_t fingerprint,
                        std::uint64_t items,
                        std::vector<std::string>& payloads);

  /// Replaces the sweep's entry with the completed payloads (empty slot =
  /// not completed) and atomically rewrites the checkpoint file.
  /// Payloads must be valid JSON documents. No-op when disarmed.
  void save(const std::string& kind, std::uint64_t fingerprint,
            std::uint64_t items, const std::vector<std::string>& payloads);

  /// Drops all in-memory state and re-arms from SNTRUST_CHECKPOINT (tests).
  void reset_for_tests();

 private:
  CheckpointStore();

  struct Entry {
    std::uint64_t fingerprint = 0;
    std::uint64_t items = 0;
    std::map<std::uint64_t, std::string> completed;  ///< index -> payload
  };

  void load_locked();
  void write_locked() const;

  mutable std::mutex mutex_;
  std::string path_;
  bool loaded_ = false;
  std::map<std::string, Entry> sweeps_;
};

/// Order-insensitive fold of configuration words into a sweep fingerprint
/// (splitmix64 chain; order *is* significant).
std::uint64_t fingerprint(std::initializer_list<std::uint64_t> words);

/// CRC-32 (IEEE, reflected) of `data`; exposed for tests.
std::uint32_t crc32(const std::string& data);

}  // namespace sntrust::exec
