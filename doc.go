// Package uavmw is a from-scratch Go implementation of the middleware
// architecture for unmanned aircraft avionics published by López, Royo,
// Pastor, Barrado and Santamaria at ACM/IFIP/USENIX Middleware 2007.
//
// The system is a service-container middleware for UAV mission and payload
// control: one container per network node manages service lifecycles, name
// resolution with proxy caching, and all network access, and offers four
// communication primitives. Name discovery is incremental: registrations
// multicast compact versioned deltas (MTAnnounceDelta) the moment they
// happen, the periodic beacon is a constant-size digest (MTHeartbeat) so
// steady-state discovery wire cost is O(nodes) rather than O(total
// records), and receivers repair version gaps, unknown nodes, and fresh
// epochs with unicast anti-entropy sync (MTSyncReq/MTSyncRep — catch-up
// deltas for small gaps, MTU-chunked full snapshots otherwise). The four
// primitives are Variables (best-effort multicast pub/sub),
// Events (guaranteed delivery, unicast per subscriber or group-addressed
// multicast with NACK-based gap repair via qos.DeliverMulticast), Remote
// Invocation (typed calls with redundancy failover — concurrent engine
// with the remaining deadline propagated on the wire, hedged failover via
// qos.CallQoS.HedgeAfter, and MTBusy admission control so overloaded
// providers shed instead of queueing), and File Transmission
// (an MFTP-like multicast bulk protocol). The implementation follows the
// paper's PEPt layering: pluggable Presentation, Encoding, Protocol and
// Transport subsystems plus a pluggable fixed-priority scheduler.
//
// Priority is enforced end to end, not just in the receiving scheduler:
// every datagram send drains through a priority-aware egress plane
// (internal/egress) of per-destination strict-priority lanes with
// drop-oldest overflow, a token-bucket pacer that shapes the PriorityBulk
// class (core.WithEgress with egress.Config.BulkRateBPS,
// qos.TransferQoS.RateBPS) so file-transfer chunks never fill a
// constrained link's queue ahead of critical frames, and coalescing of
// small same-lane frames into MTBatch datagrams that receivers unpack
// transparently. Experiment E13 measures the priority inversion this
// removes on a 1 Mb/s air-to-ground link.
//
// Transmission spans redundant heterogeneous datalinks: a node registers N
// datagram bearers (core.WithBearer — e.g. short-range WiFi plus a
// long-range radio modem), each wrapped in a link monitor
// (internal/link) that tracks per-bearer liveness, probe RTT and loss
// (MTProbe/MTProbeEcho on idle links; every received packet otherwise),
// and each with its own egress lanes and bulk pacer keyed
// (bearer, destination, class). A policy layer (qos.LinkPolicy, or the
// default derived from qos.BearerProfile) routes classes onto bearers —
// bulk on the highest-rate healthy link, critical pinned to the most
// robust — and fails a class over within a failure deadline when its
// bearer blacks out: queued frames are rerouted, ARQ retransmissions
// re-select, and discovery (which rides every bearer, with per-bearer
// reachability advertised as naming.KindBearer records in the offer log)
// keeps peer liveness alive through any single link's loss. Experiment E14
// drives a mission through a WiFi→radio handover under a mid-run blackout.
//
// The module path is uavmw; build with go build ./... and verify with
// go test ./... (see README.md for the package map).
//
// Start with the README for the architecture map and the reproduced
// evaluation. Every experiment is defined once, in the registry in
// internal/experiments (experiments.All): cmd/uavbench runs its entries at
// full size, BenchmarkExperiments in this directory runs them at quick
// size, and the baseline guards replay E13–E17 against testdata. The
// runnable entry points are in examples/ and cmd/.
package uavmw
