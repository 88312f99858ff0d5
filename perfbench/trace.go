package main

// Span tracing for the traced run. Each layer boundary the benchmark
// can see from its own files gets a span: the client call (load
// generator), the router's Handler() and each node's Handler() (child
// processes wrap them only when started with -trace). Spans are kept in
// memory and written out as JSON lines when the process exits.
//
// A client request and the router and node spans it causes share one
// id: the client adds a benchmark-only pbid query parameter, which the
// router forwards verbatim to the node (it forwards the raw query but
// no request headers). Rollout phase calls carry no pbid; their parent
// epoch is the router's /-/rollout span whose interval contains them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/corpusbin"
)

// span is one timed call at a layer boundary. Start and End are wall
// clock nanoseconds, comparable across the processes of one host.
type span struct {
	Proc   string `json:"proc"`             // "client", "router", "node0"...
	Name   string `json:"name"`             // "GET /extract", "POST /-/rollout/prepare"...
	ID     string `json:"id,omitempty"`     // pbid correlation id
	Parent string `json:"parent,omitempty"` // layer of the causing span: "client" or "router"
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"` // request body bytes (rollout prepare)
	HBD    bool   `json:"hbd,omitempty"`   // prepare body sniffs as an HBD delta
}

func (s span) dur() int64 { return s.End - s.Start }

// traceParam is the benchmark-only query parameter carrying the span id.
const traceParam = "pbid"

// controlPath toggles a child's span recording; the wrapper answers it
// before the wrapped handler sees the request.
const controlPath = "/-/perfbench/trace"

// recorder collects one process's spans.
type recorder struct {
	proc   string
	parent string
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newRecorder(proc, parent string) *recorder {
	return &recorder{proc: proc, parent: parent, spans: make([]span, 0, 1<<15)}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap puts a span around every request next serves while recording is
// on. The correlation id is read before the span starts, so the scan is
// charged to tracing overhead rather than to the wrapped layer.
func (r *recorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == controlPath {
			r.on.Store(req.URL.Query().Get("on") == "1")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		s := span{Proc: r.proc, Name: req.Method + " " + req.URL.Path, ID: queryValue(req.URL.RawQuery, traceParam), Parent: r.parent}
		if req.URL.Path == "/-/rollout/prepare" {
			body, err := io.ReadAll(req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.Bytes, s.HBD = int64(len(body)), corpusbin.IsHBD(body)
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		s.Start = time.Now().UnixNano()
		next.ServeHTTP(w, req)
		s.End = time.Now().UnixNano()
		r.add(s)
	})
}

// queryValue scans a raw query for key's value without building the
// url.Values map. Values the benchmark sets need no unescaping.
func queryValue(raw, key string) string {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a span file; a missing file means no spans.
func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []span
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("spans %s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (overlapping children, such as a hedged pair of
// forwards, count once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64 = 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// byID groups spans of one layer by correlation id.
func byID(spans []span, name string) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		if s.ID != "" && s.Name == name {
			out[s.ID] = append(out[s.ID], s)
		}
	}
	return out
}

// within returns the spans named name whose interval lies inside p's.
func within(p span, spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.Start >= p.Start && s.End <= p.End {
			out = append(out, s)
		}
	}
	return out
}

// longest is the largest duration among spans, 0 when there are none.
func longest(spans []span) int64 {
	var m int64
	for _, s := range spans {
		m = max(m, s.dur())
	}
	return m
}
