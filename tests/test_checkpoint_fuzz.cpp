// Seeded mutation fuzzing of the checkpoint reader. A small mixing and
// GateKeeper run writes a clean checkpoint; each case mutates its bytes
// (bit flips, byte overwrites, truncations, deleted and duplicated spans),
// re-stamps the CRC whenever the mutated text still parses so that the
// mutation reaches past the CRC check, and runs both sweeps against it.
// Every case must end as a fresh run, a restored run equal to the clean
// one, or the documented std::runtime_error. The one exception is a
// mutation that leaves well-formed records with other bits (a flipped hex
// digit, or a renumbered source): nothing in the format can tell it from a
// record the sweep wrote, so that case must only run or throw
// std::runtime_error without a sanitizer report. The seed and case count
// are fixed, so every run tries the same files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "parallel/thread_pool.hpp"
#include "sybil/gatekeeper.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

constexpr std::uint64_t kSeed = 20240611;
constexpr int kCases = 1000;

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
}

/// Applies one random edit to `text`.
void mutate(std::string& text, Rng& rng) {
  // Overwrites favour the bytes the format is made of, so that more
  // mutants still parse.
  static constexpr char kBytes[] = "0123456789abcdefg\"{}[],:-.eE \x7f\xff";
  if (text.empty()) {
    text.push_back(kBytes[rng.uniform(sizeof kBytes - 1)]);
    return;
  }
  const std::size_t pos = rng.uniform(text.size());
  const std::size_t span = 1 + rng.uniform(std::min<std::size_t>(
                                   40, text.size() - pos));
  switch (rng.uniform(5)) {
    case 0:  // bit flip
      text[pos] = static_cast<char>(text[pos] ^ (1 << rng.uniform(8)));
      break;
    case 1:  // byte overwrite
      text[pos] = kBytes[rng.uniform(sizeof kBytes - 1)];
      break;
    case 2:  // truncation
      text.resize(pos);
      break;
    case 3:  // deleted span
      text.erase(pos, span);
      break;
    default:  // duplicated span
      text.insert(pos + span, text.substr(pos, span));
      break;
  }
}

/// `text` with the CRC of its sweeps object stamped in, as a writer would,
/// when it parses to an object with a sweeps member; else `text` as it is.
std::string restamped(const std::string& text) {
  json::Value doc;
  try {
    doc = json::Value::parse(text);
  } catch (const std::runtime_error&) {
    return text;
  }
  const json::Value* sweeps = doc.find("sweeps");
  if (!doc.is_object() || sweeps == nullptr) return text;
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x",
                static_cast<unsigned>(exec::crc32(sweeps->dump())));
  json::Object members = doc.as_object();
  bool stamped = false;
  for (json::Member& member : members) {
    if (member.first != "crc32") continue;
    member.second = json::Value::string(crc);
    stamped = true;
  }
  if (!stamped) members.emplace_back("crc32", json::Value::string(crc));
  return json::Value::object(std::move(members)).dump();
}

/// A sweep entry of the clean checkpoint, with the records it holds.
struct CleanSweep {
  std::string kind;
  std::uint64_t fingerprint = 0;
  std::uint64_t items = 0;
  exec::Records records;
};

TEST(CheckpointFuzz, MutatedFilesRestoreRefuseOrStartFresh) {
  parallel::ScopedThreadCount serial{1};
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  const std::string path =
      (std::filesystem::temp_directory_path() / "sntrust_checkpoint_fuzz.json")
          .string();
  const Graph g = largest_component(barabasi_albert(150, 3, 9)).graph;
  MixingOptions mixing;
  mixing.num_sources = 6;
  mixing.max_walk_length = 10;
  mixing.seed = 3;
  GateKeeperParams gatekeeper;
  gatekeeper.seed = 11;
  gatekeeper.num_distributers = 2;

  std::remove(path.c_str());
  store.set_path(path);
  const MixingCurves clean_curves = measure_mixing(g, mixing);
  const GateKeeperResult clean_admission = run_gatekeeper(g, 0, gatekeeper);
  std::string clean_text;
  {
    std::ifstream in{path, std::ios::binary};
    clean_text.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::vector<CleanSweep> clean;
  const json::Value clean_doc = json::Value::parse(clean_text);
  for (const json::Member& entry : clean_doc.find("sweeps")->as_object()) {
    CleanSweep sweep;
    const std::size_t colon = entry.first.find(':');
    sweep.kind = entry.first.substr(0, colon);
    sweep.fingerprint =
        std::stoull(entry.first.substr(colon + 1), nullptr, 16);
    sweep.items =
        static_cast<std::uint64_t>(entry.second.find("items")->as_int());
    sweep.records = store.restore(sweep.kind, sweep.fingerprint, sweep.items);
    ASSERT_EQ(sweep.records.size(), sweep.items) << entry.first;
    clean.push_back(std::move(sweep));
  }
  ASSERT_EQ(clean.size(), 2u);

  Rng rng{kSeed};
  int fresh = 0, restored = 0, refused = 0, forged = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = clean_text;
    for (std::uint64_t edits = 1 + rng.uniform(3); edits > 0; --edits)
      mutate(text, rng);
    text = restamped(text);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + text);
    write_file(path, text);
    store.set_path(path);

    // What the loader accepts, compared with the clean records.
    bool load_refused = false;
    bool other_bits = false;
    std::uint64_t accepted = 0;
    try {
      for (const CleanSweep& sweep : clean) {
        const exec::Records got =
            store.restore(sweep.kind, sweep.fingerprint, sweep.items);
        accepted += got.size();
        for (const auto& [i, record] : got)
          other_bits = other_bits || record != sweep.records.at(i);
      }
    } catch (const std::runtime_error&) {
      load_refused = true;
    }

    bool threw = false;
    bool same = false;
    try {
      const MixingCurves curves = measure_mixing(g, mixing);
      const GateKeeperResult admission = run_gatekeeper(g, 0, gatekeeper);
      same = curves.sources == clean_curves.sources &&
             curves.tvd == clean_curves.tvd &&
             admission.budgets == clean_admission.budgets &&
             admission.admissions == clean_admission.admissions;
    } catch (const std::runtime_error&) {
      threw = true;
    }

    if (load_refused) {
      EXPECT_TRUE(threw) << "a refused file let a sweep run";
      ++refused;
    } else if (other_bits) {
      ++forged;  // runs or throws, and ASan/UBSan stay quiet
    } else {
      EXPECT_FALSE(threw) << "clean records were refused";
      EXPECT_TRUE(same) << "clean records gave another result";
      ++(accepted == 0 ? fresh : restored);
    }
  }
  std::printf("checkpoint fuzz: %d cases: %d fresh, %d restored, %d "
              "refused, %d forged\n",
              kCases, fresh, restored, refused, forged);
  // Each outcome is reached, so the mutator exercises every path.
  EXPECT_GT(fresh, 0);
  EXPECT_GT(restored, 0);
  EXPECT_GT(refused, 0);
  store.set_path("");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
