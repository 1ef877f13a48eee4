#include "graph/io.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sntrust {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x534e545255535431ULL;  // "SNTRUST1"

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in, const std::string& path) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw IoError("binary graph: truncated file " + path);
  return value;
}

/// Parses one vertex-id token: digits only (a leading '-' is a malformed
/// line, not a wrapped-around huge id), rejecting values that overflow 64
/// bits. Every diagnostic carries the 1-based line number.
std::uint64_t parse_vertex_id(const std::string& token, std::size_t line_no) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos)
    throw IoError("edge list: malformed vertex id '" + token + "' at line " +
                  std::to_string(line_no));
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || end != token.c_str() + token.size())
    throw IoError("edge list: vertex id '" + token +
                  "' overflows 64 bits at line " + std::to_string(line_no));
  return value;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  const obs::Span span{"io.read_edge_list", "io"};
  std::unordered_map<std::uint64_t, VertexId> id_map;
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::string line;
  std::size_t line_no = 0;
  const auto intern = [&](std::uint64_t raw) {
    if (id_map.size() >=
        static_cast<std::size_t>(std::numeric_limits<VertexId>::max()))
      throw IoError("edge list: more than " +
                    std::to_string(std::numeric_limits<VertexId>::max()) +
                    " distinct vertices at line " + std::to_string(line_no));
    auto [it, inserted] =
        id_map.emplace(raw, static_cast<VertexId>(id_map.size()));
    return it->second;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields{line};
    std::string a, b;
    if (!(fields >> a >> b))  // trailing fields beyond the pair are ignored
      throw IoError("edge list: malformed line " + std::to_string(line_no) +
                    ": '" + line + "'");
    edges.emplace_back(intern(parse_vertex_id(a, line_no)),
                       intern(parse_vertex_id(b, line_no)));
  }
  obs::count("io.lines_read", line_no);
  obs::count("io.edges_read", edges.size());
  GraphBuilder builder{static_cast<VertexId>(id_map.size())};
  builder.reserve(edges.size());
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw IoError("cannot open edge list: " + path);
  return read_edge_list(in);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  const obs::Span span{"io.write_edge_list", "io"};
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (VertexId v : g.neighbors(u))
      if (u < v) out << u << ' ' << v << '\n';
  obs::count("io.edges_written", g.num_edges());
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw IoError("cannot open for writing: " + path);
  write_edge_list(g, out);
  if (!out) throw IoError("write failed: " + path);
}

void write_binary_file(const Graph& g, const std::string& path) {
  const obs::Span span{"io.write_binary", "io"};
  std::ofstream out{path, std::ios::binary};
  if (!out) throw IoError("cannot open for writing: " + path);
  write_pod(out, kBinaryMagic);
  write_pod(out, static_cast<std::uint64_t>(g.num_vertices()));
  write_pod(out, static_cast<std::uint64_t>(g.targets().size()));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() *
                                         sizeof(EdgeIndex)));
  out.write(reinterpret_cast<const char*>(g.targets().data()),
            static_cast<std::streamsize>(g.targets().size() *
                                         sizeof(VertexId)));
  if (!out) throw IoError("write failed: " + path);
}

Graph read_binary_file(const std::string& path) {
  const obs::Span span{"io.read_binary", "io"};
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw IoError("cannot open binary graph: " + path);
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  if (read_pod<std::uint64_t>(in, path) != kBinaryMagic)
    throw IoError("binary graph: bad magic in " + path);
  const auto n = read_pod<std::uint64_t>(in, path);
  const auto half_edges = read_pod<std::uint64_t>(in, path);
  // Validate the header against the actual byte count before allocating
  // anything: a corrupt or truncated header must fail cleanly, not request
  // hundreds of gigabytes.
  if (n > std::numeric_limits<VertexId>::max())
    throw IoError("binary graph: vertex count " + std::to_string(n) +
                  " overflows the 32-bit vertex id space in " + path);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(file_size) - 3 * sizeof(std::uint64_t);
  const std::uint64_t expected =
      (n + 1) * sizeof(EdgeIndex) + half_edges * sizeof(VertexId);
  if (file_size < static_cast<std::streamoff>(3 * sizeof(std::uint64_t)) ||
      payload != expected)
    throw IoError("binary graph: header (n=" + std::to_string(n) +
                  ", half_edges=" + std::to_string(half_edges) +
                  ") expects " + std::to_string(expected) +
                  " payload bytes but file has " + std::to_string(payload) +
                  ": " + path);
  std::vector<EdgeIndex> offsets(n + 1);
  std::vector<VertexId> targets(half_edges);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeIndex)));
  in.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(targets.size() * sizeof(VertexId)));
  if (!in) throw IoError("binary graph: truncated file " + path);
  return Graph{std::move(offsets), std::move(targets)};  // validates
}

Graph read_graph_auto(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw IoError("cannot open graph: " + path);
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.close();
  if (in.gcount() == sizeof magic) {
    if (magic == kSnapshotMagic) return load_snapshot(path);
    if (magic == kBinaryMagic) return read_binary_file(path);
  }
  return read_edge_list_file(path);
}

}  // namespace sntrust
