package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
)

// BenchmarkRouterForward measures the router hop for one GET /extract:
// the router handler, the forward, and the loopback round trip to one
// of three serve nodes.
func BenchmarkRouterForward(b *testing.B) {
	rt := newTestRouter(b, newTestNodes(b, 3), nil)
	h := rt.Handler()
	req := httptest.NewRequest("GET", "/extract?host=as7-pod9.cluster3.net", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("GET /extract = %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkRouterForwardBatch measures the router hop for a 1000-host
// POST /extract: body read, shard key, forward, and relaying the
// node's answer.
func BenchmarkRouterForwardBatch(b *testing.B) {
	const hosts = 1000
	rt := newTestRouter(b, newTestNodes(b, 3), nil)
	h := rt.Handler()
	var body bytes.Buffer
	for i := 0; i < hosts; i++ {
		fmt.Fprintf(&body, "as%d-pod%d.cluster%d.net\n", i, i+1, i%nSuffixes)
	}
	req := httptest.NewRequest("POST", "/extract", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = io.NopCloser(bytes.NewReader(body.Bytes()))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("POST /extract = %d: %s", w.Code, w.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hosts), "ns/host")
}
