// Package bus provides the on-chip interconnect of the simulated MPSoC:
// transaction types, cycle-true split-transaction ports, a shared bus
// with pluggable arbitration in both phases, and a crossbar with
// pipelined lanes.
//
// The paper's system connects several ISSs (masters) to several shared
// memory modules (slaves) through an interconnect. Every transaction
// carries an operation code and a shared-memory address (sm_addr) "as the
// first data of every transaction"; the remaining operands depend on the
// operation (allocation carries a size and data type, writes carry a
// virtual pointer and data, and so on). This package models that
// transaction vocabulary in the Request/Response pair, and the
// cycle-by-cycle wiring in Port.
//
// # Ports, tags, credits
//
// A Port is a credit-based connection between one master and one slave
// side (usually the interconnect). The master issues up to Depth tagged
// requests without waiting — Issue consumes a credit and returns the
// transaction's Tag — and drains completions through the per-cycle
// Completions iterator (or TakeCompletion), which returns the credit.
// The slave side serves a request queue: Peek inspects the visible head,
// Pop removes it, Complete publishes the response under the popped tag.
// Peek couples payload and validity in one call, so a caller can never
// read a stale request — the footgun of the older Pending/PeekRequest
// pair.
//
// Delivery order is selectable per port: in-order (default) buffers
// early completions and releases them in issue order, so masters that
// ignore tags keep the classic FIFO contract; out-of-order delivers in
// completion order for masters that track tags themselves. An in-order
// port parks early completions in a table of Depth slots, completion
// of tag t in slot t mod Depth: undelivered tags lie in a window of at
// most Depth consecutive issue numbers, so no two share a slot. The
// slave side tracks its open tags in a table of Depth slots too, so
// neither side hashes.
//
// Masters poll their ports every cycle they run, and most polls find
// nothing. Such a poll costs one compare: Port.Ready tests whether the
// count of delivered completions differs from the committed count of
// published ones, and every poll (HasCompletion, PeekCompletion,
// TakeCompletion, Response, Completions) tests it first, inlined into
// the caller, before calling its out-of-line slow path. Equal counts
// mean nothing is deliverable: the delivered count never passes the
// drained count, and the drained count never passes the committed
// one, so nothing is left to drain and nothing drained waits for
// delivery.
//
// # Read-burst buffers
//
// A master may pass the destination of an OpReadBurst as the request's
// Burst: length 0, capacity at least Dim. The slave then reads the
// elements into that buffer and returns it as Response.Burst
// (Request.ReadBuffer applies the rule for every slave). The buffer
// belongs to the master throughout: nothing else keeps it, and the
// master must not reuse it until it has taken the completion. A master
// that keeps the burst it gets back passes no buffer and receives a new
// slice. A buffer of length 0 travels, and snapshots, exactly like no
// buffer, so passing one changes no simulated behaviour. The caches'
// MSHRs refill through their own line buffers this way. A write burst's
// payload likewise stays the master's: every slave copies it while
// serving, before it completes the request, so the master may reuse it
// once it has taken the completion, as the caches' writebacks do.
//
// Timing discipline is unchanged from the paper: requests issued in
// cycle c are visible to the slave side from c+1, completions published
// in cycle c are visible to the master from c+1 — registered
// communication, "incoming signals are evaluated cycle by cycle". At
// Depth 1 with in-order delivery a port is cycle-identical to the
// original single-outstanding Link handshake; the zero PortConfig
// selects exactly that configuration.
//
// # Phases: one engine, released or held
//
// Both interconnects are built from one transfer engine. A channel is
// free or moving the words of a request or of a response, counted down
// at WordCycles per word; the Bus has one channel for both phases, and
// every Crossbar lane a request channel and a response channel. The
// base both embed owns the ports, the per-slave pending tables (slave-
// port tag → master index and master-port tag) and the counters, and
// runs the three steps of a transaction the same way for either:
//
//   - grant: arbitrate among masters whose head request the channel may
//     serve (a slave with queue credit free, or none at all — rejected
//     with ErrNoSlave once its words have moved) and the snoop domain
//     lets proceed, pop the winner and start its request words;
//   - deliver: when the request words have moved, issue the request into
//     the slave port's queue — bounded by the port depth, the protocol's
//     credit pool — and record its origin;
//   - respond: take the slave's completion, route it back to its master
//     through the pending table and start the response words.
//
// The one thing the Split field selects is what the channel does
// between deliver and respond:
//
// Split releases it. Slaves process their queues autonomously, other
// address phases proceed, and a finished transaction re-arbitrates for
// the channel (the Bus's RespArb; response phases have priority over
// address phases, since a parked response pins both a slave queue slot
// and a master credit). Transactions to different memories, and
// pipelined transactions to the same memory, therefore overlap in
// simulated time — the memory-level parallelism experiment E10 measures
// exactly this.
//
// Occupied (default) holds it: from the end of the address phase the
// channel is reserved for the addressed slave until that response has
// drained, so a granted transaction owns the channel end-to-end —
// request words, slave wait, response words — with no response
// arbitration (RespGrants stays 0) and the wait counted as busy time.
// This is the paper's bus, the 2005-faithful reference, and it remains
// bit-identical to the pre-split implementation; the differential
// reference in internal/experiments/testdata pins both protocols.
//
// What stays with each type is its policy. On the Bus the hold is one
// slave index beside the channel, and a free channel serves a
// completion before a new request. A Crossbar lane runs its response
// channel before its request channel, so split lanes can accept request
// N+1 while the slave processes N and response N−1 drains; an occupied
// lane starts an address phase only if it was entirely free (both
// channels idle, nothing pending) when the tick began. The crossbar
// rejects requests to nonexistent slaves centrally, before its lanes
// run; the bus moves their words first. The counters the two bump at
// different moments stay with each: PerSlave at grant on a lane but
// after the address words on the bus, and RespGrants.
//
// A snapshot restores the engine only into a state a run can reach: the
// port, bus and crossbar sections reject channel states, origins,
// pending tables and counters no run leaves behind (see
// docs/SNAPSHOT.md), so a restored fabric cannot panic on its first
// response.
//
// # Arbitration
//
// Arbiters see the indices of requesters with visible demand and pick
// one per grant (the candidate slice is the interconnect's scratch
// buffer, valid only during the call). RoundRobin is starvation-free under sustained
// saturation; FixedPriority is cheap and documents the classic
// starvation pathology (see the fairness tests). The split Bus
// arbitrates the response phase with a second, independent arbiter
// instance.
package bus
