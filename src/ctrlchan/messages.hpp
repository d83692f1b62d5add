// OpenFlow-1.0-flavored control messages. DIFANE's promise is that the
// controller (and authority switches) manage switch state through ordinary
// flow-table messages — no new switch hardware. This module models the
// message vocabulary the paper relies on: flow modifications, packet
// injection, barriers (ordering), and flow-statistics queries whose answers
// aggregate per *policy* rule even when the rule was clipped into many
// installed copies.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "obs/flow_export.hpp"
#include "switchsim/flow_table.hpp"

namespace difane {

using Xid = std::uint32_t;  // transaction id echoed in replies

enum class FlowModOp : std::uint8_t { kAdd = 0, kModify, kDelete };

struct FlowMod {
  Xid xid = 0;
  FlowModOp op = FlowModOp::kAdd;
  Band band = Band::kCache;
  Rule rule;                  // for kDelete only rule.id is consulted
  double idle_timeout = 0.0;  // cache band only
  double hard_timeout = 0.0;
  // Protector entries this rule depends on (see FlowEntry::guards).
  std::vector<RuleId> guards;
};

// Inject a packet at the switch as if it arrived on a port (the NOX
// packet-out used to resume a punted packet).
struct PacketOut {
  Xid xid = 0;
  BitVec header;
  std::uint32_t bytes = 100;
  Action action;  // the action the controller decided on
};

// Process all previously received messages before replying.
struct BarrierRequest {
  Xid xid = 0;
};

// Ask for counters. `origin` filters by the origin (policy) rule id;
// kInvalidRuleId means "everything".
struct FlowStatsRequest {
  Xid xid = 0;
  RuleId origin = kInvalidRuleId;
};

// One telemetry export batch travelling switch -> collector. Unlike the
// requests above this one flows *toward* the controller, which is why the
// channel endpoint is an abstract ControlEndpoint (below): the collector
// side reuses the exact same reliable-delivery machinery as a switch agent.
struct FlowExport {
  Xid xid = 0;
  obs::FlowExportBatch batch;
};

// ---- live partition migration ("make-before-break" re-homing) -----------
// These three messages are the control vocabulary of a partition move. All of
// them are idempotent by construction — a bind of a bound partition and a
// flip refresh in place, a retire of an unbound partition is a no-op — so
// the reliable channel's retransmission/duplication path needs no special
// casing.

// Bind a partition's authority rules at the destination switch (the
// make-before-break "make": the destination is fully stocked before any
// ingress is flipped toward it). The message names the plan's shared rule
// set; applying it costs one flow-mod per rule, as streaming the rules
// would.
struct PartitionInstall {
  Xid xid = 0;
  AuthorityRuleSet rules;
};

// Flip one switch's partition-band redirect rule so new redirects chase the
// partition at its new home. The rule id is stable per partition, so the
// flip refreshes the existing entry in place.
struct PartitionFlip {
  Xid xid = 0;
  Rule rule;  // partition-band redirect (encap to the new authority)
};

// Retire the source copy after the drain window: unbind the partition from
// the authority band. Retiring a partition the switch no longer holds
// (crash, duplicate retire) is a silent no-op.
struct PartitionRetire {
  Xid xid = 0;
  std::uint32_t partition = 0;
};

using Request =
    std::variant<FlowMod, PacketOut, BarrierRequest, FlowStatsRequest, FlowExport,
                 PartitionInstall, PartitionFlip, PartitionRetire>;

// ---- replies -------------------------------------------------------------

struct FlowModReply {
  Xid xid = 0;
  bool ok = false;
};

struct BarrierReply {
  Xid xid = 0;
};

// One row per distinct origin rule: counters summed over every installed
// copy (clipped partitions copies, microflow entries, shadow rules), so the
// controller sees exactly the per-policy-rule counters it would have seen
// with one giant table. This is the transparency property.
struct FlowStatsEntry {
  RuleId origin = kInvalidRuleId;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t installed_copies = 0;
};

struct FlowStatsReply {
  Xid xid = 0;
  std::vector<FlowStatsEntry> entries;
};

// Acknowledges a FlowExport batch by its per-exporter sequence number.
struct FlowExportAck {
  Xid xid = 0;
  std::uint64_t seq = 0;
};

using Reply = std::variant<FlowModReply, BarrierReply, FlowStatsReply, FlowExportAck>;

// ---- endpoint ------------------------------------------------------------

// The receiving end of a ControlChannel. SwitchAgent (switch-side apply
// pipeline) and the telemetry CollectorEndpoint (controller-side collector)
// both implement it, so one channel class serves both directions of the
// control plane. deliver() receives a transported request and must
// eventually invoke `on_reply` (when non-empty) exactly once — the reliable
// channel turns that reply into the ack that stops retransmission.
class ControlEndpoint {
 public:
  using ReplyHandler = std::function<void(const Reply&)>;

  virtual ~ControlEndpoint() = default;
  virtual void deliver(const Request& request, ReplyHandler on_reply) = 0;
};

}  // namespace difane
