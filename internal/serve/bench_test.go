package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeExtract measures the in-process handler for one
// GET /extract: admission, query scan, extraction, encoding.
func BenchmarkServeExtract(b *testing.B) {
	s, _ := newTestServer(b, nil)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/extract?host=as7018-pod42.serve3.net", nil)
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

// BenchmarkServeExtractBatch measures the in-process handler for a
// 1000-host POST /extract: body read, line split, batch extraction,
// encoding.
func BenchmarkServeExtractBatch(b *testing.B) {
	const hosts = 1000
	s, _ := newTestServer(b, nil)
	h := s.Handler()
	var body bytes.Buffer
	for i := 0; i < hosts; i++ {
		fmt.Fprintf(&body, "as%d-pod%d.serve%d.net\n", i, i+1, i%nSuffixes)
	}
	req := httptest.NewRequest("POST", "/extract", nil)
	req.ContentLength = int64(body.Len())
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
