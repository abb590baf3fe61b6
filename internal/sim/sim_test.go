package sim

import "testing"

func newBCC(t *testing.T, n int) *Network {
	t.Helper()
	net, err := NewNetwork(Config{N: n, Mode: ModeBCC})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNetwork(Config{N: 0, Mode: ModeBCC}); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := NewNetwork(Config{N: 3, Mode: Mode(99)}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := NewNetwork(Config{N: 3, Mode: ModeBroadcastCONGEST}); err == nil {
		t.Error("missing adjacency accepted")
	}
}

func TestBCCDelivery(t *testing.T) {
	net := newBCC(t, 4)
	net.BeginPhase()
	net.Broadcast(1, 8, "hello")
	rounds := net.EndPhase()
	if rounds != 1 {
		t.Fatalf("rounds = %d, want 1", rounds)
	}
	for v := 0; v < 4; v++ {
		in := net.inbox[v]
		if v == 1 {
			if len(in) != 0 {
				t.Fatalf("sender received own message")
			}
			continue
		}
		if len(in) != 1 || in[0].From != 1 || in[0].Payload.(string) != "hello" {
			t.Fatalf("vertex %d inbox = %v", v, in)
		}
	}
}

func TestCONGESTDeliveryRestrictedToNeighbors(t *testing.T) {
	adj := [][]int{{1}, {0, 2}, {1}}
	net, err := NewNetwork(Config{N: 3, Mode: ModeBroadcastCONGEST, Adjacency: adj})
	if err != nil {
		t.Fatal(err)
	}
	net.BeginPhase()
	net.Broadcast(0, 4, 7)
	net.EndPhase()
	if len(net.inbox[1]) != 1 {
		t.Fatal("neighbor did not receive")
	}
	if len(net.inbox[2]) != 0 {
		t.Fatal("non-neighbor received")
	}
}

func TestRoundChargingIsMaxOverVertices(t *testing.T) {
	net, err := NewNetwork(Config{N: 3, Mode: ModeBCC, BandwidthBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	net.BeginPhase()
	net.Broadcast(0, 25, nil) // 3 rounds for vertex 0
	net.Broadcast(1, 10, nil) // 1 round for vertex 1
	net.Broadcast(1, 10, nil) // 2 rounds total for vertex 1
	rounds := net.EndPhase()
	if rounds != 3 {
		t.Fatalf("phase rounds = %d, want 3 (max over vertices)", rounds)
	}
	if net.Rounds() != 3 {
		t.Fatalf("total rounds = %d", net.Rounds())
	}
	st := net.Stats()
	if st.Messages != 3 || st.Bits != 45 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInboxReplacedEachPhase(t *testing.T) {
	net := newBCC(t, 2)
	net.BeginPhase()
	net.Broadcast(0, 1, "a")
	net.EndPhase()
	net.BeginPhase()
	net.EndPhase()
	if len(net.inbox[1]) != 0 {
		t.Fatal("stale inbox")
	}
}

func TestChargeRoundsAndReset(t *testing.T) {
	net := newBCC(t, 2)
	net.ChargeRounds(5)
	if net.Rounds() != 5 {
		t.Fatal("ChargeRounds not counted")
	}
}

func TestPhaseDiscipline(t *testing.T) {
	net := newBCC(t, 2)
	mustPanic(t, func() { net.Broadcast(0, 1, nil) })
	mustPanic(t, func() { net.EndPhase() })
	net.BeginPhase()
	mustPanic(t, func() { net.BeginPhase() })
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

func TestModeString(t *testing.T) {
	if ModeBCC.String() == "" || ModeBroadcastCONGEST.String() == "" {
		t.Fatal("empty mode strings")
	}
}
