package sim

import (
	"fmt"
	"math"
)

// Mode selects the communication model.
type Mode int

const (
	// ModeBroadcastCONGEST restricts delivery to graph neighbors.
	ModeBroadcastCONGEST Mode = iota + 1
	// ModeBCC delivers every broadcast to every vertex (shared blackboard).
	ModeBCC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBroadcastCONGEST:
		return "Broadcast CONGEST"
	case ModeBCC:
		return "Broadcast Congested Clique"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Message is a broadcast with a declared size in bits. Payload is opaque to
// the simulator.
type Message struct {
	From    int
	Bits    int
	Payload interface{}
}

// Config configures a Network.
type Config struct {
	// N is the number of vertices.
	N int
	// Mode is the communication model.
	Mode Mode
	// BandwidthBits is B, the per-round message size. Zero means the
	// standard B = 4·⌈log₂ N⌉ (the Θ(log n) of the model with a concrete
	// constant; IDs, weights and float mantissa chunks all fit in O(1)
	// messages).
	BandwidthBits int
	// Adjacency gives, for ModeBroadcastCONGEST, the neighbor lists. It is
	// ignored in ModeBCC.
	Adjacency [][]int
}

// Network is a synchronous broadcast network with round accounting.
type Network struct {
	n         int
	mode      Mode
	bandwidth int
	adj       [][]int

	rounds   int
	messages int64
	bits     int64

	inPhase bool
	pending [][]Message // per-sender queue for the current phase
	inbox   [][]Message // per-receiver messages from the last phase
}

// NewNetwork creates a network from cfg.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("sim: need at least one vertex, got %d", cfg.N)
	}
	if cfg.Mode != ModeBCC && cfg.Mode != ModeBroadcastCONGEST {
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}
	bw := cfg.BandwidthBits
	if bw == 0 {
		bw = 4 * BitsForID(cfg.N)
	}
	if bw <= 0 {
		return nil, fmt.Errorf("sim: non-positive bandwidth %d", bw)
	}
	var adj [][]int
	if cfg.Mode == ModeBroadcastCONGEST {
		if len(cfg.Adjacency) != cfg.N {
			return nil, fmt.Errorf("sim: adjacency has %d entries, want %d", len(cfg.Adjacency), cfg.N)
		}
		adj = make([][]int, cfg.N)
		for v, ns := range cfg.Adjacency {
			adj[v] = append([]int(nil), ns...)
		}
	}
	return &Network{
		n:         cfg.N,
		mode:      cfg.Mode,
		bandwidth: bw,
		adj:       adj,
		pending:   make([][]Message, cfg.N),
		inbox:     make([][]Message, cfg.N),
	}, nil
}

// N returns the number of vertices.
func (net *Network) N() int { return net.n }

// BeginPhase starts a communication phase. Phases must not nest.
func (net *Network) BeginPhase() {
	if net.inPhase {
		panic("sim: BeginPhase inside a phase")
	}
	net.inPhase = true
	for v := range net.pending {
		net.pending[v] = nil
	}
}

// Broadcast queues a broadcast by vertex from of the given size. It must be
// called between BeginPhase and EndPhase.
func (net *Network) Broadcast(from, bits int, payload interface{}) {
	if !net.inPhase {
		panic("sim: Broadcast outside a phase")
	}
	if from < 0 || from >= net.n {
		panic(fmt.Sprintf("sim: sender %d out of range", from))
	}
	if bits <= 0 {
		bits = 1
	}
	net.pending[from] = append(net.pending[from], Message{From: from, Bits: bits, Payload: payload})
}

// EndPhase closes the phase: it charges max_v ⌈bits_v/B⌉ rounds, delivers
// all queued messages to the receivers' inboxes (replacing the previous
// phase's inboxes) and returns the number of rounds charged.
func (net *Network) EndPhase() int {
	if !net.inPhase {
		panic("sim: EndPhase outside a phase")
	}
	net.inPhase = false
	maxRounds := 0
	for v := range net.inbox {
		net.inbox[v] = nil
	}
	for v, msgs := range net.pending {
		var vbits int
		for _, m := range msgs {
			vbits += m.Bits
			net.messages++
			net.bits += int64(m.Bits)
		}
		if r := (vbits + net.bandwidth - 1) / net.bandwidth; r > maxRounds {
			maxRounds = r
		}
		for _, m := range msgs {
			net.deliver(v, m)
		}
	}
	net.rounds += maxRounds
	return maxRounds
}

func (net *Network) deliver(from int, m Message) {
	switch net.mode {
	case ModeBCC:
		for u := 0; u < net.n; u++ {
			if u != from {
				net.inbox[u] = append(net.inbox[u], m)
			}
		}
	case ModeBroadcastCONGEST:
		for _, u := range net.adj[from] {
			net.inbox[u] = append(net.inbox[u], m)
		}
	}
}

// ChargeRounds adds k rounds for a step whose communication is accounted
// analytically (e.g. propagating a mark down a depth-k cluster tree, where
// building the explicit per-hop messages adds nothing to the measurement).
func (net *Network) ChargeRounds(k int) {
	if k < 0 {
		panic("sim: negative round charge")
	}
	net.rounds += k
}

// Rounds returns the total rounds charged so far.
func (net *Network) Rounds() int { return net.rounds }

// Stats summarizes the traffic so far.
type Stats struct {
	Rounds   int
	Messages int64
	Bits     int64
}

// Stats returns a snapshot of the accounting counters.
func (net *Network) Stats() Stats {
	return Stats{Rounds: net.rounds, Messages: net.messages, Bits: net.bits}
}

// BitsForID returns the bits needed to name one of n items: ⌈log₂ n⌉,
// at least 1.
func BitsForID(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// BitsForInt returns the bits for a non-negative integer bounded by maxVal.
func BitsForInt(maxVal int64) int {
	if maxVal <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(maxVal + 1))))
}

// BitsForFloat returns the message size used for a real value communicated
// with relative precision eps and magnitude bound u: O(log(u/eps)) bits
// (Theorem 1.3 charges O(log(nU/ε)) bits per vector coordinate).
func BitsForFloat(u, eps float64) int {
	if u <= 0 {
		u = 1
	}
	if eps <= 0 || eps >= 1 {
		eps = 1e-9
	}
	return int(math.Ceil(math.Log2(u/eps))) + 2
}
