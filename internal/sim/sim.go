package sim

import (
	"fmt"
	"math"
	"slices"
)

// Network is the round ledger of a synchronous broadcast network. A nil
// *Network is a valid ledger that charges nothing.
type Network struct {
	n         int
	bandwidth int // B = 4·⌈log₂ n⌉

	rounds   int
	messages int64
	bits     int64

	inPhase bool
	sent    []int // bits each vertex has broadcast in the current phase
}

// NewNetwork returns a ledger for n vertices with the standard bandwidth
// B = 4·⌈log₂ n⌉: the Θ(log n) of the model with a concrete constant, so
// IDs, weights and float mantissa chunks all fit in O(1) messages.
func NewNetwork(n int) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: need at least one vertex, got %d", n)
	}
	return &Network{n: n, bandwidth: 4 * BitsForID(n), sent: make([]int, n)}, nil
}

// BeginPhase starts a communication phase. Phases must not nest.
func (net *Network) BeginPhase() {
	if net == nil {
		return
	}
	if net.inPhase {
		panic("sim: BeginPhase inside a phase")
	}
	net.inPhase = true
}

// Broadcast charges a broadcast of the given size by vertex from; a
// non-positive size counts as one bit. It must be called between
// BeginPhase and EndPhase.
func (net *Network) Broadcast(from, bits int) {
	if net == nil {
		return
	}
	if !net.inPhase {
		panic("sim: Broadcast outside a phase")
	}
	if from < 0 || from >= net.n {
		panic(fmt.Sprintf("sim: sender %d out of range", from))
	}
	bits = max(bits, 1)
	net.sent[from] += bits
	net.messages++
	net.bits += int64(bits)
}

// EndPhase closes the phase, charges it max_v ⌈bits_v/B⌉ rounds and
// returns that charge.
func (net *Network) EndPhase() int {
	if net == nil {
		return 0
	}
	if !net.inPhase {
		panic("sim: EndPhase outside a phase")
	}
	net.inPhase = false
	r := net.roundsFor(slices.Max(net.sent))
	clear(net.sent)
	net.rounds += r
	return r
}

// BroadcastAll charges one phase in which every vertex broadcasts bits
// and returns its rounds: BeginPhase, Broadcast(v, bits) for every v,
// EndPhase. It must be called outside a phase.
func (net *Network) BroadcastAll(bits int) int {
	net.BeginPhase()
	for v := 0; v < net.N(); v++ {
		net.Broadcast(v, bits)
	}
	return net.EndPhase()
}

// roundsFor is ⌈bits/B⌉, the rounds one vertex needs to broadcast bits.
func (net *Network) roundsFor(bits int) int {
	return (bits + net.bandwidth - 1) / net.bandwidth
}

// ChargeRounds adds k rounds for a step whose communication is accounted
// analytically (e.g. propagating a mark down a depth-k cluster tree, where
// building the explicit per-hop messages adds nothing to the measurement).
func (net *Network) ChargeRounds(k int) {
	if net == nil {
		return
	}
	if k < 0 {
		panic("sim: negative round charge")
	}
	net.rounds += k
}

// N returns the number of vertices the ledger charges for (0 if nil).
func (net *Network) N() int {
	if net == nil {
		return 0
	}
	return net.n
}

// Rounds returns the total rounds charged so far.
func (net *Network) Rounds() int {
	if net == nil {
		return 0
	}
	return net.rounds
}

// Stats summarizes the traffic so far.
type Stats struct {
	Rounds   int
	Messages int64
	Bits     int64
}

// Stats returns a snapshot of the accounting counters.
func (net *Network) Stats() Stats {
	if net == nil {
		return Stats{}
	}
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
