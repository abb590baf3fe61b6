package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bcclap"
	"bcclap/internal/graph"
)

// testTenant is the tenant newTestServer registers.
const testTenant = "default"

// newTestServer builds the daemon handler over a service with one tenant
// on a small random instance.
func newTestServer(t *testing.T) (*server, *graph.Digraph) {
	t.Helper()
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	svc := bcclap.NewService(bcclap.WithSeed(3), bcclap.WithPoolSize(2))
	if _, err := svc.Register(testTenant, d); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	// Generous solve budget: concurrent solves under -race on a small
	// host can exceed the 30s production default.
	return newServer(svc, 5*time.Minute, 7*time.Second, 3), d
}

// specJSON encodes a digraph as a PUT /v1/networks body.
func specJSON(t *testing.T, d *graph.Digraph, extra map[string]any) []byte {
	t.Helper()
	arcs := make([][4]int64, d.M())
	for i, a := range d.Arcs() {
		arcs[i] = [4]int64{int64(a.From), int64(a.To), a.Cap, a.Cost}
	}
	body := map[string]any{"n": d.N(), "arcs": arcs}
	for k, v := range extra {
		body[k] = v
	}
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func doReq(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// End-to-end acceptance: /healthz answers and the tenant's flow route
// returns the certified (value, cost) the combinatorial baseline computes.
func TestServeFlowEndToEnd(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp.Body.Close()

	st, tt := 0, d.N()-1
	wantV, wantC, _, err := bcclap.MinCostMaxFlowBaseline(d, st, tt)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"s": st, "t": tt, "include_flows": true})
	resp, err = http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow: status %d", resp.StatusCode)
	}
	var fr flowResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Value != wantV || fr.Cost != wantC {
		t.Fatalf("served (%d, %d), baseline (%d, %d)", fr.Value, fr.Cost, wantV, wantC)
	}
	if len(fr.Flows) != d.M() {
		t.Fatalf("include_flows: got %d arcs, want %d", len(fr.Flows), d.M())
	}

	// The same query again must be served from the cache, bit-identically.
	resp, err = http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var again flowResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat query not served from cache")
	}
	if again.Value != fr.Value || again.Cost != fr.Cost || fmt.Sprint(again.Flows) != fmt.Sprint(fr.Flows) {
		t.Fatalf("cached response differs: %+v vs %+v", again, fr)
	}
}

// A batch request must answer every query (cache in front, warm starts
// behind), and the stats endpoint must reflect the service's work.
func TestServeBatchAndStats(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	st, tt := 0, d.N()-1
	wantV, wantC, _, err := bcclap.MinCostMaxFlowBaseline(d, st, tt)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"queries": []map[string]int{{"s": st, "t": tt}, {"s": st, "t": tt}, {"s": st, "t": tt}},
	})
	resp, err := http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow/batch: status %d", resp.StatusCode)
	}
	var br struct {
		Results []flowResponse `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results", len(br.Results))
	}
	warm := 0
	for i, r := range br.Results {
		if r.Value != wantV || r.Cost != wantC {
			t.Fatalf("batch result %d: (%d, %d) vs baseline (%d, %d)", i, r.Value, r.Cost, wantV, wantC)
		}
		if r.WarmStarted {
			warm++
		}
	}
	// This first batch misses the (empty) cache entirely, so its repeats
	// must still warm-start inside the pool exactly as before the
	// service layer existed.
	if warm == 0 {
		t.Fatal("no batch repeat warm-started")
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["solved"].(float64); got < 3 {
		t.Fatalf("stats solved=%v, want ≥ 3", got)
	}
	if got := stats["tenants"].(float64); got != 1 {
		t.Fatalf("stats tenants=%v, want 1", got)
	}
	if _, ok := stats["cache"]; !ok {
		t.Fatal("stats missing cache counters")
	}
	if _, ok := stats["networks"]; !ok {
		t.Fatal("stats missing per-network records")
	}
}

// Malformed queries and bodies must map onto 400, not 500.
func TestServeErrorMapping(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, body := range []string{
		`{"s": 2, "t": 2}`,
		`{"s": -1, "t": 1}`,
		`{"s": 0, "t": ` + jsonInt(d.N()) + `}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown tenant → 404; flow against it too.
	resp := doReq(t, http.MethodDelete, ts.URL+"/v1/networks/nobody", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/networks/nobody/flow", "application/json", strings.NewReader(`{"s":0,"t":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flow on unknown tenant: status %d, want 404", resp.StatusCode)
	}
}

// Acceptance (tentpole): full multi-tenant lifecycle over REST — register
// two tenants, solve on both concurrently, swap one (version bump, cache
// flush, new answers), confirm the other tenant's cache stayed hot, then
// deregister — with every intermediate state visible via the list/stats
// endpoints.
func TestServeMultiTenantLifecycle(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	dA := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(11)))
	dB := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(12)))
	dA2 := graph.RandomFlowNetwork(6, 0.35, 3, 3, rand.New(rand.NewSource(13)))

	// Register both tenants; 201 and version 1 each.
	for name, d := range map[string]*graph.Digraph{"team-a": dA, "team-b": dB} {
		resp := doReq(t, http.MethodPut, ts.URL+"/v1/networks/"+name, specJSON(t, d, nil))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: status %d, want 201", name, resp.StatusCode)
		}
		var nr networkResponse
		if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if nr.Name != name || nr.Version != 1 || nr.N != d.N() || nr.M != d.M() {
			t.Fatalf("PUT %s response %+v", name, nr)
		}
	}

	// GET /v1/networks lists default + the two tenants.
	resp, err := http.Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Networks []networkResponse `json:"networks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Networks) != 3 {
		t.Fatalf("listed %d networks, want 3", len(list.Networks))
	}

	solve := func(tenant string, d *graph.Digraph) flowResponse {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"s": 0, "t": d.N() - 1, "include_flows": true})
		resp, err := http.Post(ts.URL+"/v1/networks/"+tenant+"/flow", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flow %s: status %d", tenant, resp.StatusCode)
		}
		var fr flowResponse
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	baseline := func(d *graph.Digraph) (int64, int64) {
		t.Helper()
		v, c, _, err := bcclap.MinCostMaxFlowBaseline(d, 0, d.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		return v, c
	}

	// Solve on both tenants concurrently; all answers must match the
	// per-tenant baselines (no cross-tenant bleed).
	wantAV, wantAC := baseline(dA)
	wantBV, wantBC := baseline(dB)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if fr := solve("team-a", dA); fr.Value != wantAV || fr.Cost != wantAC {
					t.Errorf("team-a: (%d, %d), want (%d, %d)", fr.Value, fr.Cost, wantAV, wantAC)
				}
			} else {
				if fr := solve("team-b", dB); fr.Value != wantBV || fr.Cost != wantBC {
					t.Errorf("team-b: (%d, %d), want (%d, %d)", fr.Value, fr.Cost, wantBV, wantBC)
				}
			}
		}(i)
	}
	wg.Wait()

	// Warm both caches with one more (now repeated) solve each.
	if fr := solve("team-a", dA); !fr.CacheHit {
		t.Fatal("team-a repeat not cached")
	}
	if fr := solve("team-b", dB); !fr.CacheHit {
		t.Fatal("team-b repeat not cached")
	}

	// PUT on the live team-a swaps it: 200, version 2, new network served.
	resp = doReq(t, http.MethodPut, ts.URL+"/v1/networks/team-a", specJSON(t, dA2, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap PUT: status %d, want 200", resp.StatusCode)
	}
	var swapped networkResponse
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if swapped.Version != 2 || swapped.N != dA2.N() || swapped.M != dA2.M() {
		t.Fatalf("swap response %+v, want version 2 over the new network", swapped)
	}

	// Post-swap solves answer the NEW network (cold — the swap flushed
	// team-a's cache) while team-b's cache is still hot.
	wantA2V, wantA2C := baseline(dA2)
	fr := solve("team-a", dA2)
	if fr.CacheHit {
		t.Fatal("post-swap solve served a stale cached entry")
	}
	if fr.Value != wantA2V || fr.Cost != wantA2C {
		t.Fatalf("post-swap: (%d, %d), want (%d, %d)", fr.Value, fr.Cost, wantA2V, wantA2C)
	}
	if fr := solve("team-b", dB); !fr.CacheHit {
		t.Fatal("swap of team-a flushed team-b's cache")
	}

	// Deregister team-a; its routes 404, team-b still serves.
	resp = doReq(t, http.MethodDelete, ts.URL+"/v1/networks/team-a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/networks/team-a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats of deregistered tenant: status %d, want 404", resp.StatusCode)
	}
	if fr := solve("team-b", dB); fr.Value != wantBV || fr.Cost != wantBC {
		t.Fatal("team-b broken by team-a's deregistration")
	}

	// Lifecycle counters on /v1/stats.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := stats["swaps"].(float64); got != 1 {
		t.Fatalf("swaps=%v, want 1", got)
	}
	if got := stats["deregistered"].(float64); got != 1 {
		t.Fatalf("deregistered=%v, want 1", got)
	}
}

// Per-tenant solver overrides in the PUT body must take effect.
func TestServeNetworkSpecOverrides(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp := doReq(t, http.MethodPut, ts.URL+"/v1/networks/tuned",
		[]byte(`{"random_n": 5, "seed": 9, "backend": "csr-pcg", "pool": 3, "cache_size": 0}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d, want 201", resp.StatusCode)
	}
	var nr networkResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	if nr.Backend != "csr-pcg" || nr.PoolSize != 3 || nr.Cache.Capacity != 0 {
		t.Fatalf("overrides not applied: %+v", nr)
	}

	// An unknown backend, the retired csr-cg included, must fail the
	// registration cleanly.
	for _, backend := range []string{"no-such-backend", "csr-cg"} {
		resp = doReq(t, http.MethodPut, ts.URL+"/v1/networks/broken",
			[]byte(`{"random_n": 5, "backend": "`+backend+`"}`))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("backend %q: PUT status %d, want 400", backend, resp.StatusCode)
		}
	}
}

// Satellite: once shutdown has begun, queries must answer 503 with a
// Retry-After header — not a generic 500 — so load balancers back off
// during the drain window.
func TestServeShutdownRetryAfter(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	if err := s.service().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"s": 0, "t": d.N() - 1})
	for _, url := range []string{
		ts.URL + "/v1/networks/" + testTenant + "/flow",
		ts.URL + "/v1/networks/" + testTenant + "/flow/batch",
	} {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during shutdown: status %d, want 503", url, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("%s: Retry-After %q, want %q (the drain budget in seconds)", url, ra, "7")
		}
	}
}

// An unknown -backend must stop the daemon at startup, like a bad -pool
// or -fsync, instead of coming up healthy and rejecting every PUT.
func TestServeRejectsUnknownBackend(t *testing.T) {
	for _, backend := range []string{"nosuch", "csr-cg"} {
		errCh := make(chan error, 1)
		go func() {
			errCh <- run(serveConfig{addr: "127.0.0.1:0", backend: backend, poolSize: 1, seed: 1})
		}()
		select {
		case err := <-errCh:
			if !errors.Is(err, bcclap.ErrBackendUnknown) {
				t.Fatalf("run -backend %s: %v, want ErrBackendUnknown", backend, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run with -backend %s did not fail at startup", backend)
		}
	}
}

func jsonInt(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
