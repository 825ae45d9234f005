// Runtime environment seen by protocol actors.
//
// All protocol logic (chain nodes, clients, geo replicators) is written
// against this narrow interface so the exact same code runs on
//   * the deterministic discrete-event simulator (src/sim), and
//   * the real TCP transport (src/net).
#ifndef SRC_SIM_ENV_H_
#define SRC_SIM_ENV_H_

#include <functional>
#include <string>
#include <string_view>

#include "src/common/payload.h"
#include "src/common/types.h"

namespace chainreaction {

class Env {
 public:
  virtual ~Env() = default;

  // Current time in microseconds (simulated or wall clock).
  virtual Time Now() = 0;

  // Asynchronously delivers `payload` to `dst`. Links are reliable and FIFO
  // per (src, dst) pair unless the simulation injects faults. A std::string
  // converts implicitly (owned, one move); fan-out senders pass a shared
  // Payload so one encoded frame serves every destination (DESIGN.md §15).
  virtual void Send(Address dst, Payload payload) = 0;

  // Runs `fn` after `delay`. Returns a timer id usable with CancelTimer.
  //
  // A zero delay is the end-of-turn point: `fn` runs once the event being
  // handled has returned, with no wait. The simulator runs it at the same
  // instant, after the events already queued for that instant (FIFO).
  // TcpRuntime runs it in the loop's next RunTimers, before the FlushAll
  // that writes the frames produced while handling the event, so what `fn`
  // sends shares their writev. What it sends to an actor on the same loop
  // (and a zero-delay timer armed by another timer) is handled in the next
  // cycle, which polls without waiting. Actors batch per turn by arming at
  // most one such timer while something is pending.
  // The guarantee holds through faults: a crashed simulated actor runs its
  // due timers when restored, and an unregistered one takes its state (and
  // its flags) with it.
  virtual uint64_t Schedule(Duration delay, std::function<void()> fn) = 0;
  virtual void CancelTimer(uint64_t timer_id) = 0;
};

// An actor receives messages addressed to it. Implementations must not block.
class Actor {
 public:
  virtual ~Actor() = default;
  // `payload` aliases the transport's receive buffer and is valid ONLY for
  // the duration of the call: decode what you need, copy what you keep.
  // This is what lets both transports deliver frames without a per-message
  // heap copy (DESIGN.md §15).
  virtual void OnMessage(Address from, std::string_view payload) = 0;
};

}  // namespace chainreaction

#endif  // SRC_SIM_ENV_H_
