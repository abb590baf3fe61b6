package sim

import "testing"

func newBCC(t *testing.T, n int) *Network {
	t.Helper()
	net, err := NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNetwork(0); err == nil {
		t.Error("zero vertices accepted")
	}
}

func TestRoundChargingIsMaxOverVertices(t *testing.T) {
	net := newBCC(t, 3) // B = 4·⌈log₂ 3⌉ = 8
	net.BeginPhase()
	net.Broadcast(0, 20) // 3 rounds for vertex 0
	net.Broadcast(1, 8)  // 1 round for vertex 1
	net.Broadcast(1, 8)  // 2 rounds total for vertex 1
	rounds := net.EndPhase()
	if rounds != 3 {
		t.Fatalf("phase rounds = %d, want 3 (max over vertices)", rounds)
	}
	// The next phase starts from empty per-sender totals.
	net.BeginPhase()
	net.Broadcast(1, 8)
	if rounds := net.EndPhase(); rounds != 1 {
		t.Fatalf("second phase rounds = %d, want 1", rounds)
	}
	if got, want := net.Stats(), (Stats{Rounds: 4, Messages: 4, Bits: 44}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestChargeRounds(t *testing.T) {
	net := newBCC(t, 2)
	net.ChargeRounds(5)
	if net.Rounds() != 5 {
		t.Fatal("ChargeRounds not counted")
	}
}

// BroadcastAll(bits) is the phase in which every vertex broadcasts bits,
// a non-positive size counting as one bit.
func TestBroadcastAllMatchesPerVertexPhase(t *testing.T) {
	net := newBCC(t, 3) // B = 8
	if r := net.BroadcastAll(20); r != 3 {
		t.Fatalf("BroadcastAll(20) = %d rounds, want 3", r)
	}
	if r := net.BroadcastAll(0); r != 1 {
		t.Fatalf("BroadcastAll(0) = %d rounds, want 1", r)
	}
	if got, want := net.Stats(), (Stats{Rounds: 4, Messages: 6, Bits: 63}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// A nil network is a ledger that charges nothing.
func TestNilNetworkChargesNothing(t *testing.T) {
	var net *Network
	net.BeginPhase()
	net.Broadcast(0, 8)
	if r := net.EndPhase(); r != 0 {
		t.Fatalf("EndPhase = %d", r)
	}
	if r := net.BroadcastAll(8); r != 0 {
		t.Fatalf("BroadcastAll = %d", r)
	}
	net.ChargeRounds(5)
	if net.N() != 0 || net.Rounds() != 0 || net.Stats() != (Stats{}) {
		t.Fatalf("nil network charged %d rounds, %+v", net.Rounds(), net.Stats())
	}
}

func TestPhaseDiscipline(t *testing.T) {
	net := newBCC(t, 2)
	mustPanic(t, func() { net.Broadcast(0, 1) })
	mustPanic(t, func() { net.EndPhase() })
	net.BeginPhase()
	mustPanic(t, func() { net.BeginPhase() })
	mustPanic(t, func() { net.BroadcastAll(1) })
	net.EndPhase()
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestBitHelpers(t *testing.T) {
	if BitsForID(1) != 1 || BitsForID(2) != 1 || BitsForID(1024) != 10 || BitsForID(1025) != 11 {
		t.Fatal("BitsForID wrong")
	}
	if BitsForInt(1) != 1 || BitsForInt(255) != 8 {
		t.Fatalf("BitsForInt wrong: %d", BitsForInt(255))
	}
	if BitsForFloat(1024, 1.0/1024) < 20 {
		t.Fatal("BitsForFloat too small")
	}
	if BitsForFloat(0, 0) <= 0 {
		t.Fatal("BitsForFloat should default sanely")
	}
}
