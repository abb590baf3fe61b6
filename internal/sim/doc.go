// Package sim provides a deterministic synchronous round simulator for
// the two message-passing models of the paper (Section 2.1):
//
//   - Broadcast CONGEST: each vertex sends one B-bit message per round
//     that all of its *graph neighbors* receive.
//   - Broadcast Congested Clique (BCC): each vertex sends one B-bit
//     message per round that *every* vertex receives (equivalently,
//     appends to a shared blackboard).
//
// Algorithms interact with the simulator in communication phases: between
// BeginPhase and EndPhase every vertex queues the broadcasts it wants to
// make; EndPhase charges the phase max_v ⌈(bits queued by v)/B⌉ rounds —
// vertices send in parallel, and a vertex with k·B bits to broadcast
// needs k rounds — and delivers the messages to the receivers' inboxes.
// Local computation is free, exactly as in the model.
//
// The simulator is an accounting device, not an enforcement sandbox: the
// algorithms in this repository are written so that a vertex only acts on
// its own state plus received messages, and the tests verify knowledge
// consistency (e.g. both endpoints of an edge reach the same conclusion
// from broadcasts alone).
//
// Invariants:
//
//   - Determinism: round counts are a pure function of the queued
//     broadcasts — no wall-clock, no goroutines — so every experiment's
//     measured-vs-claimed table is reproducible.
//   - One Network serves one solver session at a time: the phase state is
//     unsynchronized by design (one network, one round structure).
//     Attaching a network to several pool workers would interleave round
//     accounting, so the session layer accepts WithNetwork only on a
//     one-worker FlowSolver, and Service tenants reject it outright.
package sim
