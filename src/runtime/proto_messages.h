// Messages of the prototype runtime (paper §3.8).
//
// The prototype's node monitors and schedulers communicate only through
// messages on the MessageBus, standing in for the paper's Thrift RPC between
// Sparrow node monitors and schedulers. The bus is in-process, so a message
// travels as its typed struct inside a Message variant; the MessageType tag
// names its role (JobRefMsg carries two, TaskMsg four).
#ifndef HAWK_RUNTIME_PROTO_MESSAGES_H_
#define HAWK_RUNTIME_PROTO_MESSAGES_H_

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/types.h"

namespace hawk {
namespace runtime {

// A bus endpoint: node monitor, frontend, backend or failure detector.
using Address = uint32_t;

enum MessageType : uint32_t {
  kJobSubmit = 1,     // submitter -> frontend/backend: a job with task durations
  kProbe = 2,         // frontend -> node monitor: enqueue a reservation
  kTaskRequest = 3,   // node monitor -> frontend: probe reached queue head
  kTaskGrant = 4,     // frontend -> node monitor: run this task
  kTaskCancel = 5,    // frontend -> node monitor: job has no tasks left
  kTaskPlace = 6,     // backend -> node monitor: enqueue a concrete (long) task
  kTaskStarted = 7,   // node monitor -> backend: placed task began executing
  kTaskDone = 8,      // node monitor -> owner scheduler: task finished
  kStealRequest = 9,  // node monitor -> node monitor: try to steal short work
  kStealResponse = 10,  // victim -> thief: stolen probes (possibly none)
  kHeartbeat = 11  // node monitor -> failure detector: still alive
};

// Construction convention (hawk-lint rule HL001, mirroring the SimEvent
// fix): every message below is built through a named factory that assigns
// fields by name, never through positional brace-init — a reordered or
// added field then cannot silently land in the wrong slot. The factories
// are the only sanctioned senders' constructors.
struct JobSubmitMsg {
  JobId job = 0;
  bool is_long = false;
  int64_t estimate_us = 0;
  std::vector<int64_t> task_durations_us;

  static JobSubmitMsg Make(JobId job, bool is_long, int64_t estimate_us,
                           std::vector<int64_t> task_durations_us) {
    JobSubmitMsg m;
    m.job = job;
    m.is_long = is_long;
    m.estimate_us = estimate_us;
    m.task_durations_us = std::move(task_durations_us);
    return m;
  }
};

// kProbe. Also the unit stolen between node monitors: a probe retains its
// owning frontend so the thief's task request goes to the right scheduler.
// `slot` is the global slot index the frontend sampled (multi-slot capacity
// weighting; the receiving monitor validates it owns the slot); `is_long`
// is the probed job's scheduling class — node monitors need it for steal
// screening, since long probes block a queue like long tasks do (§3.6).
struct ProbeMsg {
  JobId job = 0;
  Address frontend = 0;
  uint32_t slot = 0;
  bool is_long = false;

  static ProbeMsg Make(JobId job, Address frontend, uint32_t slot, bool is_long) {
    ProbeMsg m;
    m.job = job;
    m.frontend = frontend;
    m.slot = slot;
    m.is_long = is_long;
    return m;
  }
};

// kTaskRequest / kTaskCancel: job + the sender's address.
struct JobRefMsg {
  JobId job = 0;
  Address sender = 0;

  // One named constructor per message role the struct carries.
  static JobRefMsg TaskRequest(JobId job, Address sender) {
    JobRefMsg m;
    m.job = job;
    m.sender = sender;
    return m;
  }
  static JobRefMsg TaskCancel(JobId job, Address sender) {
    JobRefMsg m;
    m.job = job;
    m.sender = sender;
    return m;
  }
};

// kTaskGrant / kTaskPlace / kTaskStarted / kTaskDone. For kTaskPlace, `slot`
// is the global slot index (§3.7 lane) the backend's waiting-time queue
// charged and `estimate_us` the estimate it charged there; the receiving
// monitor validates it owns the slot and echoes the message whole in
// kTaskStarted and kTaskDone, so the backend's feedback reaches the exact
// lane with the exact estimate whatever the bus delivery order. Grants have
// no slot affinity (the monitor's slots share one FIFO queue) and leave both
// 0.
struct TaskMsg {
  JobId job = 0;
  TaskIndex task_index = 0;
  int64_t duration_us = 0;
  bool is_long = false;
  Address owner = 0;  // Scheduler to notify on completion.
  uint32_t slot = 0;
  int64_t estimate_us = 0;

  // kTaskGrant: late-binding grant from a distributed frontend.
  static TaskMsg Grant(JobId job, TaskIndex task_index, int64_t duration_us, bool is_long,
                       Address owner) {
    TaskMsg m;
    m.job = job;
    m.task_index = task_index;
    m.duration_us = duration_us;
    m.is_long = is_long;
    m.owner = owner;
    return m;
  }
  // kTaskPlace: direct placement by the centralized backend into the §3.7
  // lane (`slot`) its waiting-time queue charged with `estimate_us`.
  static TaskMsg Place(JobId job, TaskIndex task_index, int64_t duration_us, bool is_long,
                       Address owner, uint32_t slot, int64_t estimate_us) {
    TaskMsg m = Grant(job, task_index, duration_us, is_long, owner);
    m.slot = slot;
    m.estimate_us = estimate_us;
    return m;
  }
};

// kStealRequest: thief's address. kStealResponse: batch of stolen probes.
struct StealRequestMsg {
  Address thief = 0;

  static StealRequestMsg From(Address thief) {
    StealRequestMsg m;
    m.thief = thief;
    return m;
  }
};

struct StealResponseMsg {
  std::vector<ProbeMsg> probes;
};

// kHeartbeat: the sending node. Deliberately minimal — the detector's
// suspicion state is built entirely from arrival times, not payload.
struct HeartbeatMsg {
  Address node = 0;

  static HeartbeatMsg From(Address node) {
    HeartbeatMsg m;
    m.node = node;
    return m;
  }
};

// A message as it travels on the bus.
using Message = std::variant<JobSubmitMsg, ProbeMsg, JobRefMsg, TaskMsg, StealRequestMsg,
                             StealResponseMsg, HeartbeatMsg>;

// Whether `payload` holds the struct that tag `type` carries.
inline bool CarriesType(MessageType type, const Message& payload) {
  switch (type) {
    case kJobSubmit:
      return std::holds_alternative<JobSubmitMsg>(payload);
    case kProbe:
      return std::holds_alternative<ProbeMsg>(payload);
    case kTaskRequest:
    case kTaskCancel:
      return std::holds_alternative<JobRefMsg>(payload);
    case kTaskGrant:
    case kTaskPlace:
    case kTaskStarted:
    case kTaskDone:
      return std::holds_alternative<TaskMsg>(payload);
    case kStealRequest:
      return std::holds_alternative<StealRequestMsg>(payload);
    case kStealResponse:
      return std::holds_alternative<StealResponseMsg>(payload);
    case kHeartbeat:
      return std::holds_alternative<HeartbeatMsg>(payload);
  }
  return false;
}

// Whether the bus may lose a message of `type` when wire faults are on. Only
// types with timeout-based recovery are droppable: probes (re-probed by the
// frontend watchdog), placements and completions (re-dispatched by the
// owner's deadline reaper), and heartbeats (the detector tolerates gaps by
// design; a dropped beat at worst causes a transient suspicion the next
// arrival clears). Losing a grant, cancel, start or steal message would leak
// a monitor slot or wedge a protocol round with no recovery path; that
// models a crashed endpoint, which the crash axis injects properly.
inline bool Droppable(MessageType type) {
  return type == kProbe || type == kTaskPlace || type == kTaskDone || type == kHeartbeat;
}

// Address plan: node monitors get [0, num_nodes), frontends get
// kFrontendBase + i, the backend gets kBackendAddress, the failure detector
// gets kDetectorAddress.
inline constexpr Address kFrontendBase = 1'000'000;
inline constexpr Address kBackendAddress = 2'000'000;
inline constexpr Address kDetectorAddress = 3'000'000;

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_PROTO_MESSAGES_H_
