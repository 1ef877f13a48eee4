#include "exec/checkpoint.hpp"

#include <unistd.h>

#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/env.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace sntrust::exec {

namespace {

constexpr std::size_t kWordDigits = 16;

/// 16 lowercase hex digits per word, most significant digit first.
std::string encode_record(const Record& record) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string text(record.size() * kWordDigits, '0');
  for (std::size_t w = 0; w < record.size(); ++w) {
    std::uint64_t word = record[w];
    for (std::size_t d = kWordDigits; d-- > 0; word >>= 4)
      text[w * kWordDigits + d] = kDigits[word & 15];
  }
  return text;
}

/// The record encode_record wrote, or nothing when `text` is anything
/// else: a length that is not a multiple of 16, or a byte that is not a
/// lowercase hex digit.
std::optional<Record> decode_record(const std::string& text) {
  if (text.size() % kWordDigits != 0) return std::nullopt;
  Record record(text.size() / kWordDigits, 0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
    record[i / kWordDigits] = record[i / kWordDigits] << 4 | digit;
  }
  return record;
}

std::string hex64(std::uint64_t v) { return encode_record(Record{v}); }

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", static_cast<unsigned>(v));
  return buf;
}

std::string sweep_key(const std::string& kind, std::uint64_t fingerprint) {
  return kind + ":" + hex64(fingerprint);
}

void warn(const std::string& message) {
  std::fputs(("SNTRUST_CHECKPOINT: " + message + "\n").c_str(), stderr);
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const std::string& data) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (const unsigned char byte : data)
    crc = table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::uint64_t fingerprint(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t w : words) h = stream_seed(h, w);
  return h;
}

CheckpointStore& CheckpointStore::instance() {
  static CheckpointStore store;
  return store;
}

CheckpointStore::CheckpointStore()
    : path_(env_string("SNTRUST_CHECKPOINT", "")) {}

void CheckpointStore::set_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  loaded_ = false;
  sweeps_.clear();
}

std::string CheckpointStore::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

bool CheckpointStore::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !path_.empty();
}

void CheckpointStore::reset_for_tests() {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = env_string("SNTRUST_CHECKPOINT", "");
  loaded_ = false;
  sweeps_.clear();
}

void CheckpointStore::load_locked() {
  loaded_ = true;
  sweeps_.clear();
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // no checkpoint yet: fresh run
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return;

  json::Value doc;
  try {
    doc = json::Value::parse(text);
  } catch (const std::exception& e) {
    warn("ignoring unparseable checkpoint '" + path_ + "' (" + e.what() +
         "); starting fresh");
    return;
  }
  const json::Value* version = doc.find("schema_version");
  if (version == nullptr || !version->is_integer() ||
      version->as_int() != kCheckpointSchemaVersion) {
    warn("ignoring checkpoint '" + path_ +
         "' with unknown schema version; starting fresh");
    return;
  }
  const json::Value* sweeps = doc.find("sweeps");
  const json::Value* crc = doc.find("crc32");
  if (sweeps == nullptr || !sweeps->is_object() || crc == nullptr ||
      !crc->is_string()) {
    warn("ignoring malformed checkpoint '" + path_ + "'; starting fresh");
    return;
  }
  if (hex32(crc32(sweeps->dump())) != crc->as_string()) {
    warn("ignoring checkpoint '" + path_ +
         "' with CRC mismatch (truncated or corrupt); starting fresh");
    return;
  }

  std::map<std::string, Entry> loaded;
  for (const auto& [key, entry_value] : sweeps->as_object()) {
    if (!entry_value.is_object()) continue;
    const json::Value* fp = entry_value.find("fingerprint");
    const json::Value* items = entry_value.find("items");
    const json::Value* completed = entry_value.find("completed");
    if (fp == nullptr || !fp->is_string() || items == nullptr ||
        !items->is_integer() || items->as_int() < 0 || completed == nullptr ||
        !completed->is_object())
      continue;
    const std::optional<Record> fp_word = decode_record(fp->as_string());
    if (!fp_word || fp_word->size() != 1) continue;
    Entry entry;
    entry.fingerprint = fp_word->front();
    entry.items = static_cast<std::uint64_t>(items->as_int());
    for (const auto& [index_text, value] : completed->as_object()) {
      std::uint64_t index = 0;
      const char* const end = index_text.data() + index_text.size();
      const auto [used, error] =
          std::from_chars(index_text.data(), end, index);
      if (error != std::errc{} || used != end || index >= entry.items)
        continue;
      std::optional<Record> record;
      if (value.is_string()) record = decode_record(value.as_string());
      if (!record) {
        loaded_ = false;  // refused again on the next restore or save
        throw std::runtime_error(
            "checkpoint '" + path_ + "': sweep '" + key + "' source " +
            index_text + " is not a hex string of 16 digits per word");
      }
      entry.completed[index] = std::move(*record);
    }
    loaded[key] = std::move(entry);
  }
  sweeps_ = std::move(loaded);
}

void CheckpointStore::write_locked() const {
  json::Object sweeps;
  for (const auto& [key, entry] : sweeps_) {
    json::Object completed;
    for (const auto& [index, record] : entry.completed)
      completed.emplace_back(std::to_string(index),
                             json::Value::string(encode_record(record)));
    json::Object entry_members;
    entry_members.emplace_back("fingerprint",
                               json::Value::string(hex64(entry.fingerprint)));
    entry_members.emplace_back(
        "items",
        json::Value::integer(static_cast<std::int64_t>(entry.items)));
    entry_members.emplace_back("completed",
                               json::Value::object(std::move(completed)));
    sweeps.emplace_back(key, json::Value::object(std::move(entry_members)));
  }
  json::Value sweeps_value = json::Value::object(std::move(sweeps));
  const std::string sweeps_text = sweeps_value.dump();

  json::Object doc;
  doc.emplace_back("schema_version",
                   json::Value::integer(kCheckpointSchemaVersion));
  doc.emplace_back("sweeps", std::move(sweeps_value));
  doc.emplace_back("crc32", json::Value::string(hex32(crc32(sweeps_text))));
  const std::string text = json::Value::object(std::move(doc)).dump();

  // Atomic replace: write a sibling temp file, flush it all the way to disk,
  // then rename over the target. A crash at any point leaves either the old
  // checkpoint or the new one, never a torn file.
  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    warn("cannot open '" + tmp + "' for writing; checkpoint skipped");
    return;
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
            std::fwrite("\n", 1, 1, out) == 1;
  ok = std::fflush(out) == 0 && ok;
  ok = ::fsync(fileno(out)) == 0 && ok;
  ok = std::fclose(out) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    warn("failed to write checkpoint '" + path_ + "'");
    std::remove(tmp.c_str());
  }
}

Records CheckpointStore::restore(const std::string& kind,
                                 std::uint64_t fingerprint,
                                 std::uint64_t items) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return {};
  if (!loaded_) load_locked();
  const auto it = sweeps_.find(sweep_key(kind, fingerprint));
  if (it == sweeps_.end()) return {};
  const Entry& entry = it->second;
  if (entry.fingerprint != fingerprint || entry.items != items) return {};
  return entry.completed;
}

void CheckpointStore::save(const std::string& kind, std::uint64_t fingerprint,
                           std::uint64_t items, Records completed) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (path_.empty()) return;
  if (!loaded_) load_locked();  // keep unrelated sweeps already on disk
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.items = items;
  entry.completed = std::move(completed);
  sweeps_[sweep_key(kind, fingerprint)] = std::move(entry);
  write_locked();
}

}  // namespace sntrust::exec
