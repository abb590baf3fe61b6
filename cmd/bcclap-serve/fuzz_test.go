package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"bcclap"
	"bcclap/internal/graph"
)

// A spec's vertex count is checked before the network is allocated: one
// vertex past graph.MaxVertices keeps the test cheap even if the check is
// lost, and then it fails on the missing error and on the allocation it
// measures. The bounds themselves are accepted. TestServeMalformedBodies
// checks the 400 for each bound; FuzzRequestBodies seeds the huge sizes.
func TestServeSpecSizeBounds(t *testing.T) {
	n := graph.MaxVertices + 1
	spec := networkSpec{N: n, Arcs: [][4]int64{{0, 1, 1, 1}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := spec.digraph(1)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("n=%d accepted", n)
	}
	// NewDigraph(n) would take two n-slot slices of slice headers.
	if got, adj := after.TotalAlloc-before.TotalAlloc, uint64(2*n*24); got >= adj {
		t.Fatalf("rejecting n=%d allocated %d bytes, at least the %d of its adjacency", n, got, adj)
	}

	s, _ := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	for _, body := range []string{
		fmt.Sprintf(`{"n": %d, "arcs": [[0, 1, 1, 1]]}`, graph.MaxVertices),
		fmt.Sprintf(`{"random_n": %d, "pool": %d}`, maxRandomN, maxSpecPool),
	} {
		resp := doReq(t, http.MethodPut, ts.URL+"/v1/networks/edge", []byte(body))
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("PUT %s: status %d, want 2xx", body, resp.StatusCode)
		}
	}
}

// Every route that reads a body accepts one of exactly maxBodyBytes and
// answers 413 to one a byte longer, whether the JSON value ends early
// (trailing padding) or runs past the bound (leading padding).
func TestServeBodyBound(t *testing.T) {
	s, d := newTestServer(t)
	h := s.routes()
	tenant := "/v1/networks/" + testTenant
	for _, rt := range []struct{ method, path, body string }{
		{http.MethodPut, "/v1/networks/bound", `{"random_n": 5}`},
		{http.MethodPatch, tenant + "/arcs", `{"deltas": [{"arc": 0, "cost_delta": 1}]}`},
		{http.MethodPatch, tenant + "/limits", `{"rate_per_sec": 0}`},
		{http.MethodPost, tenant + "/flow", fmt.Sprintf(`{"s": 0, "t": %d}`, d.N()-1)},
		{http.MethodPost, tenant + "/flow/batch", fmt.Sprintf(`{"queries": [{"s": 0, "t": %d}]}`, d.N()-1)},
	} {
		pad := func(n int) string { return strings.Repeat(" ", n-len(rt.body)) }
		for _, tc := range []struct {
			body string
			want int
		}{
			{rt.body + pad(maxBodyBytes), 0},
			{rt.body + pad(maxBodyBytes+1), http.StatusRequestEntityTooLarge},
			{pad(maxBodyBytes+1) + rt.body, http.StatusRequestEntityTooLarge},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(tc.body)))
			if tc.want == 0 && rec.Code/100 != 2 || tc.want != 0 && rec.Code != tc.want {
				t.Fatalf("%s %s with a %d-byte body: status %d (%s), want %d (0: any 2xx)",
					rt.method, rt.path, len(tc.body), rec.Code, rec.Body, tc.want)
			}
		}
	}
}

// Routes FuzzRequestBodies sends its body to, selected by the route byte.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPut, "/v1/networks/fuzz"},
	{http.MethodPatch, "/v1/networks/fuzz/arcs"},
	{http.MethodPatch, "/v1/networks/fuzz/limits"},
}

// FuzzRequestBodies sends arbitrary bytes as a PUT network, PATCH arcs or
// PATCH limits body through the daemon's handler, on a memory-only
// service with one worker per tenant and a single tenant name. Whatever
// the body, the answer must be 2xx or 4xx: never a 5xx, never a panic. A
// PUT is sent twice, so a body that registers also drives a swap; the
// PATCH routes run against a registered tenant.
func FuzzRequestBodies(f *testing.F) {
	log.SetOutput(io.Discard) // one request log line per call
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"n": 4000000000, "arcs": [[0, 1, 1, 1]]}`},
		{0, `{"random_n": 100000}`},
		{0, `{"n": 3, "arcs": [[0, 1, 2, 1], [1, 2, 2, 1], [0, 2, 1, 3]], "shards": 4}`},
		{0, `{"random_n": 5, "rate_per_sec": 2, "queue_depth": 0}`},
		{0, `{"random_n": 5, "rate_per_sec": 2, "queue_depth": -1}`},
		{0, `{"random_n": 5, "rate_per_sec": -1}`},
		{0, `{"random_n": 5, "backend": "no-such-backend", "cache_size": 8}`},
		{1, `{"deltas": [{"arc": 0, "cap_delta": 1, "cost_delta": -1}]}`},
		{1, `{"deltas": [{"arc": 99, "cap_delta": -100}]}`},
		{2, `{"queue_depth": 0}`},
		{2, `{"queue_depth": -1, "max_in_flight": 1}`},
		{2, `{"rate_per_sec": -5}`},
		{2, `not json`},
		// One byte past maxBodyBytes: 413, however the value ends.
		{0, `{"random_n": 5}` + strings.Repeat(" ", maxBodyBytes+1-len(`{"random_n": 5}`))},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		svc := bcclap.NewService(bcclap.WithSeed(3), bcclap.WithPoolSize(1))
		defer svc.Close()
		h := newServer(svc, time.Minute, time.Second, 3).routes()
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		sends := 2
		if rt.method == http.MethodPatch {
			if _, err := svc.Register("fuzz", d); err != nil {
				t.Fatal(err)
			}
			sends = 1
		}
		for i := 0; i < sends; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body)))
			if rec.Code < 200 || rec.Code >= 500 {
				t.Fatalf("%s %s %q: status %d: %s", rt.method, rt.path, body, rec.Code, rec.Body)
			}
		}
	})
}
