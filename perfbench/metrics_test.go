package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in
// step: the same end-to-end and per-layer names, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got, want := strings.Join(names(b.EndToEnd), ","), strings.Join(endToEndMetrics, ","); got != want {
		t.Errorf("end_to_end in BENCHMARK.json:\n  %s\nharness:\n  %s", got, want)
	}
	if got, want := strings.Join(names(b.PerLayer), ","), strings.Join(perLayerMetrics, ","); got != want {
		t.Errorf("per_layer in BENCHMARK.json:\n  %s\nharness:\n  %s", got, want)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
}

func TestCheckMetricNames(t *testing.T) {
	r := newResult()
	r.set("a", 1, "s")
	if err := checkMetricNames(r, []string{"a"}); err != nil {
		t.Error(err)
	}
	if err := checkMetricNames(r, []string{"a", "b"}); err == nil {
		t.Error("a missing metric passed")
	}
	r.set("c", 1, "s")
	if err := checkMetricNames(r, []string{"a"}); err == nil {
		t.Error("an unexpected metric passed")
	}
}

// TestRawConn reads fixed-length and chunked bodies over one
// keep-alive connection.
func TestRawConn(t *testing.T) {
	big := strings.Repeat("x", 5000) // past net/http's buffer: chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte("hello"))
		case "/big":
			w.Write([]byte(big))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	c, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var body bytes.Buffer
	for i, tc := range []struct {
		path   string
		status int
		body   string
	}{{"/small", 200, "hello"}, {"/big", 200, big}, {"/small", 200, "hello"}, {"/missing", 404, "404 page not found\n"}} {
		status, err := c.do(getRequest(addr, tc.path), &body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if status != tc.status || body.String() != tc.body {
			t.Errorf("request %d %s: status %d, %d body bytes; want %d, %d", i, tc.path, status, body.Len(), tc.status, len(tc.body))
		}
	}
}
