// sntrust_snapshot: build and inspect zero-copy mmap graph snapshots
// (graph/snapshot.hpp).
//
//   sntrust_snapshot convert <in> <out.snap>
//       Converts a text edge list (or an existing snapshot) to snapshot
//       format. The write is atomic (temp + fsync + rename).
//   sntrust_snapshot generate <dataset_id> <scale> <seed> <out.snap>
//       Generates a Table-I analogue (scale 0 = the full paper-scale size)
//       and writes it as a snapshot directly — no edge-list detour. A
//       scale or seed that is not a whole decimal string in range (scale
//       >= 0, seed a 64-bit unsigned integer) is a usage error.
//   sntrust_snapshot info <path.snap>
//       Prints the header: version, sizes, fingerprint, CRCs.
//   sntrust_snapshot verify <path.snap>
//       Full integrity check: header CRC, size arithmetic, payload CRC, and
//       the structural validation the mmap fast path skips.
//
// Exit codes: 0 success, 64 usage error, 65 bad input (malformed, truncated,
// corrupted, foreign-endian, or unknown-version files), 1 internal error.
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "gen/datasets.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/format.hpp"

namespace {

using namespace sntrust;

int usage() {
  std::cerr << "usage:\n"
               "  sntrust_snapshot convert <in> <out.snap>\n"
               "  sntrust_snapshot generate <dataset_id> <scale> <seed> "
               "<out.snap>   (scale 0 = full paper scale)\n"
               "  sntrust_snapshot info <path.snap>\n"
               "  sntrust_snapshot verify <path.snap>\n";
  return 64;  // EX_USAGE
}

void report_written(const Graph& g, const std::string& path) {
  std::cout << "wrote " << path << ": n=" << with_thousands(g.num_vertices())
            << " m=" << with_thousands(g.num_edges()) << " fingerprint="
            << to_hex(g.fingerprint()) << "\n";
}

int cmd_convert(const std::string& in, const std::string& out) {
  const obs::Stopwatch load_clock;
  const Graph g = read_graph_auto(in);
  std::cout << "loaded " << in << " in "
            << static_cast<long long>(load_clock.elapsed_ms()) << " ms\n";
  write_snapshot(g, out);
  report_written(g, out);
  return 0;
}

int cmd_generate(const std::string& id, double scale, std::uint64_t seed,
                 const std::string& out) {
  const DatasetSpec& spec = dataset_by_id(id);
  const Graph g =
      scale == 0.0 ? spec.generate_full(seed) : spec.generate(scale, seed);
  write_snapshot(g, out);
  report_written(g, out);
  return 0;
}

int cmd_info(const std::string& path) {
  const SnapshotInfo info = snapshot_info(path);
  std::cout << "snapshot " << path << "\n"
            << "  version      " << info.version << "\n"
            << "  vertices     " << with_thousands(info.num_vertices) << "\n"
            << "  edges        " << with_thousands(info.half_edges / 2) << "\n"
            << "  fingerprint  " << to_hex(info.fingerprint) << "\n"
            << "  payload crc  " << to_hex(info.payload_crc) << "\n"
            << "  file bytes   " << with_thousands(info.file_bytes) << "\n";
  return 0;
}

int cmd_verify(const std::string& path) {
  // Header + payload CRC first (cheap, catches bit rot), then the full
  // structural validation (sortedness, symmetry) that mmap loads skip.
  const Graph g = load_snapshot(path, VerifyPayload::kFull);
  Graph{std::vector<EdgeIndex>(g.offsets().begin(), g.offsets().end()),
        std::vector<VertexId>(g.targets().begin(), g.targets().end())};
  std::cout << path << ": OK (n=" << with_thousands(g.num_vertices())
            << " m=" << with_thousands(g.num_edges()) << " fingerprint="
            << to_hex(g.fingerprint()) << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage();
    const std::string& command = args[0];
    const std::size_t n = args.size();
    if (command == "convert" && n == 3) return cmd_convert(args[1], args[2]);
    if (command == "generate" && n == 5) {
      const auto scale = parse_nonnegative(args[2]);
      const auto seed = parse_count(
          args[3], 0, std::numeric_limits<std::uint64_t>::max());
      if (!scale || !seed) return usage();
      return cmd_generate(args[1], *scale, *seed, args[4]);
    }
    if (command == "info" && n == 2) return cmd_info(args[1]);
    if (command == "verify" && n == 2) return cmd_verify(args[1]);
    return usage();
  } catch (const IoError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 65;  // EX_DATAERR
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 65;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
