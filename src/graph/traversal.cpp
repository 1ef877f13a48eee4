#include "graph/traversal.hpp"

#include "graph/frontier_bfs.hpp"

namespace sntrust {

BfsResult bfs(const Graph& g, VertexId source) {
  FrontierBfs runner{g};
  return runner.run(source);  // copies the stored result out
}

}  // namespace sntrust
