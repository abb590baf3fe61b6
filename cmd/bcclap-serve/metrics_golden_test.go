package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Satellite (CI gate): the exported metric schema — every family name
// and type — is pinned to testdata/metrics.golden. Renaming, retyping
// or dropping a family breaks downstream dashboards and recording
// rules, so it must show up as a reviewed diff, not a silent change.
// Regenerate with UPDATE_GOLDEN=1 go test -run TestServeMetricsGolden ./cmd/bcclap-serve/.
//
// Only `# TYPE` lines are compared: sample values and label sets vary
// with traffic, but the registry emits HELP/TYPE headers for every
// registered family unconditionally, so the schema is deterministic
// even on an idle daemon.
func TestServeMetricsGolden(t *testing.T) {
	s, d := newTestServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// One solve so the scrape covers a daemon that has done real work —
	// the schema must be identical either way, and the lint below checks
	// the live output, not just its headers.
	qbody, _ := json.Marshal(map[string]any{"s": 0, "t": d.N() - 1})
	resp, err := http.Post(ts.URL+"/v1/networks/"+testTenant+"/flow", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Format lint over the full scrape: every family declares HELP then
	// TYPE, every type is a known Prometheus type, every sample line
	// belongs to a declared family, and histograms carry +Inf buckets.
	var schema []string
	declared := map[string]string{}
	lastHelp := ""
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastHelp = strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: family %s has unknown type %q", ln+1, name, typ)
			}
			if lastHelp != name {
				t.Fatalf("line %d: TYPE for %s not preceded by its HELP (last HELP: %q)", ln+1, name, lastHelp)
			}
			if _, dup := declared[name]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, name)
			}
			declared[name] = typ
			schema = append(schema, name+" "+typ)
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suffix); ok && declared[cut] == "histogram" {
					base = cut
					break
				}
			}
			if _, ok := declared[base]; !ok {
				t.Fatalf("line %d: sample %q has no declared family", ln+1, line)
			}
		}
	}
	for name, typ := range declared {
		if typ == "histogram" && !strings.Contains(string(raw), name+`_bucket{`) {
			continue // unexercised vec: headers only, nothing to check
		}
		if typ == "histogram" && !strings.Contains(string(raw), `le="+Inf"`) {
			t.Fatalf("histogram %s lacks a +Inf bucket", name)
		}
	}

	got := strings.Join(schema, "\n") + "\n"
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d families)", golden, len(schema))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Fatalf("metric schema drifted from %s — if intentional, regenerate with UPDATE_GOLDEN=1.\n--- want\n%s--- got\n%s",
			golden, want, got)
	}
}
