#include "sim/simulator.hpp"

namespace mgap::sim {

std::uint64_t Simulator::run_until(TimePoint until) {
  std::uint64_t ran = 0;
  dispatching_ = false;  // an action that threw out of an earlier call
  while (!queue_.empty()) {
    if (queue_.next_time() > until) break;
    auto fired = queue_.pop();
    tied_previous_ =
        ran > 0 && fired.at == now_ && fired.scheduled_at == running_scheduled_at_;
    now_ = fired.at;
    running_scheduled_at_ = fired.scheduled_at;
    dispatching_ = true;
    fired.action();
    dispatching_ = false;
    ++ran;
  }
  if (now_ < until && until.count_ns() != std::numeric_limits<std::int64_t>::max()) {
    now_ = until;
  }
  for (const auto& hook : pause_hooks_) hook.second();
  return ran;
}

}  // namespace mgap::sim
