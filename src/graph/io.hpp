// Edge-list serialization.
//
// Text format is the SNAP-style whitespace-separated "u v" per line with
// '#' comments, so real datasets (the Table-I graphs, if available) can be
// loaded directly in place of the synthetic analogues. Generated graphs are
// cached between bench runs as mmap snapshots (graph/snapshot.hpp).
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace sntrust {

/// Input-format failure: unopenable files, malformed edge-list lines (with
/// the 1-based line number), vertex-id overflow, and snapshots whose header
/// disagrees with the file size. Derives std::runtime_error so
/// pre-existing catch sites keep working; the CLI maps it to exit code 65
/// (bad input) rather than 1 (internal error).
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses a text edge list. Vertex ids are non-negative integers, may be
/// arbitrary (sparse), and are remapped densely in first-appearance order;
/// fields after the first two on a line are ignored. Self loops and
/// duplicate edges are dropped. Throws IoError (with a line number) on
/// malformed lines, negative ids, or ids that overflow 64 bits.
Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);

/// Writes "u v" lines, one per undirected edge (u < v).
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

/// Loads a graph from either on-disk format, sniffed by magic: an mmap
/// snapshot (graph/snapshot.hpp), else a text edge list.
Graph read_graph_auto(const std::string& path);

}  // namespace sntrust
