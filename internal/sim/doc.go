// Package sim is the round ledger of the paper's two message-passing
// models (Section 2.1):
//
//   - Broadcast CONGEST: each vertex sends one B-bit message per round
//     that all of its graph neighbors receive.
//   - Broadcast Congested Clique (BCC): each vertex sends one B-bit
//     message per round that every vertex receives (equivalently,
//     appends to a shared blackboard).
//
// In both models a round lets every vertex broadcast one B-bit message,
// so both charge the same count, and one ledger serves both. Algorithms
// account in communication phases: between BeginPhase and EndPhase every
// vertex declares the broadcasts it makes, and EndPhase charges the phase
// max_v ⌈(bits broadcast by v)/B⌉ rounds — vertices send in parallel,
// and a vertex with k·B bits to broadcast needs k rounds. BroadcastAll
// charges a whole phase in which every vertex broadcasts the same size.
// Local computation is free, exactly as in the model.
//
// The package counts rounds, messages and bits; it delivers nothing. The
// algorithms in this repository are written so that a vertex only acts on
// its own state plus what was broadcast, and their tests verify knowledge
// consistency (e.g. both endpoints of an edge reach the same conclusion
// from broadcasts alone). A nil *Network charges nothing, so an algorithm
// runs without accounting by passing nil.
//
// Invariants:
//
//   - Determinism: round counts are a pure function of the declared
//     broadcasts — no wall-clock, no goroutines — so every experiment's
//     measured-vs-claimed table is reproducible.
//   - One Network serves one solver session at a time: the phase state is
//     unsynchronized by design (one network, one round structure).
//     Attaching a network to several pool workers would interleave round
//     accounting, so the session layer accepts WithNetwork only on a
//     one-worker FlowSolver, and Service tenants reject it outright.
package sim
