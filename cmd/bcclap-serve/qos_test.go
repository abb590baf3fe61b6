package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bcclap"
	"bcclap/internal/graph"
)

// Satellite: /healthz is a readiness probe, not a liveness one. It must
// answer 503 before the store replay finishes (no service attached) and
// during drain, 200 only in the window where a request would actually be
// served — while /metrics stays scrapeable throughout.
func TestServeHealthzReadiness(t *testing.T) {
	s := newServer(nil, 5*time.Minute, 7*time.Second, 3)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	get := func(path string) (*http.Response, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		raw, _ := io.ReadAll(resp.Body)
		json.Unmarshal(raw, &body)
		return resp, body
	}

	// Starting: replay not finished, nothing attached yet.
	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("healthz before attach: %d %v, want 503 starting", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatal("starting healthz must advertise Retry-After 1")
	}
	resp, body = get("/v1/networks")
	if resp.StatusCode != http.StatusServiceUnavailable || body["error"] != "service not ready" {
		t.Fatalf("API route before attach: %d %v, want 503 not-ready", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("not-ready Retry-After %q, want the drain budget 7", resp.Header.Get("Retry-After"))
	}
	if resp, _ := get("/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics before attach: %d, want 200 (scrapeable while starting)", resp.StatusCode)
	}

	// Attach flips ready.
	svc := bcclap.NewService(bcclap.WithSeed(3))
	defer svc.Close()
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	if _, err := svc.Register(testTenant, d); err != nil {
		t.Fatal(err)
	}
	s.attach(svc)
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz after attach: %d %v, want 200 ok", resp.StatusCode, body)
	}
	if resp, _ := get("/v1/networks"); resp.StatusCode != http.StatusOK {
		t.Fatalf("API route after attach: %d, want 200", resp.StatusCode)
	}

	// Draining: everything but /healthz and /metrics backs off.
	s.draining.Store(true)
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("healthz during drain: %d %v, want 503 draining", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatal("draining healthz must advertise the drain budget")
	}
	if resp, _ := get("/v1/networks"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("API route during drain: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get("/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics during drain: %d, want 200 (scrapeable while draining)", resp.StatusCode)
	}
}

// Satellite: PATCH /v1/networks/{name}/limits merges partial bodies into
// the live limits (absent fields keep their value), rejects invalid
// limits with 400 naming the sentinel, and 404s unknown tenants.
func TestServePatchLimits(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	url := ts.URL + "/v1/networks/" + testTenant + "/limits"

	resp := doReq(t, http.MethodPatch, url, []byte(`{"rate_per_sec": 50, "burst": 5}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH limits: status %d, want 200", resp.StatusCode)
	}
	var nr networkResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	if l := nr.Admission.Limits; l.RatePerSec != 50 || l.Burst != 5 {
		t.Fatalf("response limits %+v, want rate 50 burst 5", l)
	}

	// Partial body: only max_in_flight changes, the rate survives.
	resp = doReq(t, http.MethodPatch, url, []byte(`{"max_in_flight": 2, "queue_depth": -1}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second PATCH: status %d", resp.StatusCode)
	}
	h, err := s.service().Get(testTenant)
	if err != nil {
		t.Fatal(err)
	}
	want := bcclap.Limits{RatePerSec: 50, Burst: 5, MaxInFlight: 2, QueueDepth: -1}
	if got := h.Limits(); got != want {
		t.Fatalf("merged limits %+v, want %+v", got, want)
	}

	// Invalid limits: 400 with the sentinel's text.
	resp = doReq(t, http.MethodPatch, url, []byte(`{"rate_per_sec": -1}`))
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "invalid admission limits") {
		t.Fatalf("bad limits: %d %q, want 400 naming ErrBadLimits", resp.StatusCode, er.Error)
	}
	if got := h.Limits(); got != want {
		t.Fatalf("rejected PATCH changed limits to %+v", got)
	}
	// Malformed body: 400, unknown tenant: 404.
	if resp := doReq(t, http.MethodPatch, url, []byte(`nope`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := doReq(t, http.MethodPatch, ts.URL+"/v1/networks/nobody/limits", []byte(`{}`)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// Satellite: limits patched over HTTP are journaled — a daemon restarted
// over the same data directory enforces them with no re-configuration.
func TestServePatchLimitsDurable(t *testing.T) {
	dir := t.TempDir()
	d := graph.RandomFlowNetwork(5, 0.35, 3, 3, rand.New(rand.NewSource(3)))
	want := bcclap.Limits{RatePerSec: 9, Burst: 2, MaxInFlight: 3, QueueDepth: 6}

	svc, err := bcclap.OpenService(bcclap.WithStore(dir), bcclap.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(testTenant, d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, 5*time.Minute, 7*time.Second, 3).routes())
	body, _ := json.Marshal(map[string]any{
		"rate_per_sec": want.RatePerSec, "burst": want.Burst,
		"max_in_flight": want.MaxInFlight, "queue_depth": want.QueueDepth,
	})
	resp := doReq(t, http.MethodPatch, ts.URL+"/v1/networks/"+testTenant+"/limits", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH limits: status %d", resp.StatusCode)
	}
	ts.Close()
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := bcclap.OpenService(bcclap.WithStore(dir), bcclap.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	h, err := svc2.Get(testTenant)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Limits(); got != want {
		t.Fatalf("limits after restart %+v, want %+v", got, want)
	}
}

// Satellite: an admission rejection surfaces as 429 with a Retry-After
// computed from the tenant's gate (never absent, never zero), and the
// response carries the request's trace ID.
func TestServeOverloaded429(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// One token, no refill to speak of, no queue: the first solve drains
	// the bucket, the second is rejected immediately.
	resp := doReq(t, http.MethodPatch, ts.URL+"/v1/networks/"+testTenant+"/limits",
		[]byte(`{"rate_per_sec": 0.01, "burst": 1, "queue_depth": -1}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH limits: status %d", resp.StatusCode)
	}
	qbody, _ := json.Marshal(map[string]any{"s": 0, "t": d.N() - 1})
	first, err := http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d", first.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/networks/"+testTenant+"/flow", bytes.NewReader(qbody))
	req.Header.Set("X-Trace-Id", "feedfacefeedface")
	second, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second solve: status %d, want 429", second.StatusCode)
	}
	ra, err := strconv.Atoi(second.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q, want an integer ≥ 1", second.Header.Get("Retry-After"))
	}
	// rate 0.01/s with an empty bucket: the computed estimate must be the
	// token wait (~100s), not the constant busy-retry fallback of 1.
	if ra < 10 {
		t.Fatalf("Retry-After %d looks constant, want the gate's computed estimate", ra)
	}
	if got := second.Header.Get("X-Trace-Id"); got != "feedfacefeedface" {
		t.Fatalf("X-Trace-Id not echoed: %q", got)
	}
	var er errorResponse
	if err := json.NewDecoder(second.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Trace != "feedfacefeedface" || !strings.Contains(er.Error, "overloaded") {
		t.Fatalf("429 body %+v, want the trace and the overload sentinel", er)
	}
}

// Satellite: /metrics serves the Prometheus text format with both the
// service families (per-tenant QoS, pool, cache, solve latency) and the
// daemon's own HTTP families, and a minted trace ID reaches the solve
// response when the client sends none.
func TestServeMetricsEndpoint(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	qbody, _ := json.Marshal(map[string]any{"s": 0, "t": d.N() - 1})
	resp, err := http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	var fr flowResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fr.Trace) != 16 {
		t.Fatalf("solve response trace %q, want a minted 16-hex id", fr.Trace)
	}
	if fr.Trace != resp.Header.Get("X-Trace-Id") {
		t.Fatal("body trace and X-Trace-Id header disagree")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"bcclap_networks 1",
		`bcclap_admission_admitted_total{tenant="` + testTenant + `"} 1`,
		"# TYPE bcclap_solve_latency_seconds histogram",
		`bcclap_http_requests_total{method="POST",route="POST /v1/networks/{name}/flow",code="200"} 1`,
		"# TYPE bcclap_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, out)
		}
	}

	// -metrics=false removes the route entirely.
	s.metricsOn = false
	ts2 := httptest.NewServer(s.routes())
	defer ts2.Close()
	off, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with -metrics=false: status %d, want 404", off.StatusCode)
	}
}
