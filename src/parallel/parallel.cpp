#include "parallel/parallel.hpp"

#include <condition_variable>
#include <mutex>

#include "exec/cancel.hpp"

namespace sntrust::parallel {

void parallel_chains(const std::vector<std::uint32_t>& steps,
                     const ChainStepFn& step) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Chain {
    std::uint32_t started = 0;  // steps begun, the running one included
    bool busy = false;          // a worker is running one of its steps
  };
  std::mutex mutex;  // guards chains, unfinished and stop
  std::vector<Chain> chains(steps.size());
  std::size_t unfinished = 0;  // chains with steps still to finish
  for (const std::uint32_t count : steps)
    if (count > 0) ++unfinished;
  bool stop = false;  // a step threw: start no more
  std::condition_variable changed;

  // The free chain with the most steps left to start, or kNone.
  const auto pick = [&] {
    std::size_t best = kNone;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (chains[c].busy || chains[c].started == steps[c]) continue;
      if (best == kNone || steps[c] - chains[c].started >
                               steps[best] - chains[best].started)
        best = c;
    }
    return best;
  };

  parallel_for(
      0, plan_workers(steps.size()), [&](std::size_t, std::uint32_t worker) {
        std::unique_lock<std::mutex> lock{mutex};
        for (;;) {
          std::size_t c = kNone;
          changed.wait(lock, [&] {
            return stop || unfinished == 0 || (c = pick()) != kNone;
          });
          if (c == kNone) return;
          Chain& chain = chains[c];
          chain.busy = true;
          const std::uint32_t s = ++chain.started;
          lock.unlock();
          try {
            if (exec::process_cancel_requested())
              throw exec::CancelledError(exec::process_cancel_reason());
            step(c, s, worker);
          } catch (...) {
            lock.lock();
            stop = true;
            changed.notify_all();
            throw;
          }
          lock.lock();
          chain.busy = false;
          if (s == steps[c]) --unfinished;
          changed.notify_all();
        }
      });
}

}  // namespace sntrust::parallel
