// Package serve is hoiho's long-running extraction daemon core: it
// serves hostname→ASN lookups from a learned corpus over HTTP with the
// failure behavior a production deployment needs. The paper's end
// product is a corpus that downstream consumers query continuously
// (bdrmapIT's router-ownership pass in §5, the OpenINTEL-scale
// application in §7); this package turns the batch engine into a
// service that stays up.
//
// Three guarantees define the package:
//
//   - Hot reload: a new corpus is loaded into a side buffer, validated
//     by the hardened extract.Load, and published with one atomic
//     pointer swap. Requests read the pointer exactly once, so a swap
//     mid-flight can never mix two corpora in one response; a corpus
//     that fails validation is rejected while the old one keeps
//     serving, and the previous snapshot is retained for Rollback.
//
//   - Load shedding: a bounded admission gate (at most MaxInflight
//     executing + MaxQueue waiting, no wait longer than QueueWait or
//     the request's own deadline) turns overload into prompt 429s with
//     Retry-After instead of an unbounded queue.
//
//   - Graceful lifecycle: /healthz and /readyz separate liveness from
//     readiness, handler panics become 500s without killing the
//     process (the serving twin of the learner's per-suffix
//     quarantine), and Drain stops admission, lets admitted requests
//     finish under a deadline, and reports completion for a clean
//     exit 0.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// Config sizes the daemon. The zero value of every field gets a
// production-sane default from New.
type Config struct {
	// CorpusPath is the saved corpus JSON (the output of `hoiho -save`)
	// loaded at boot and on every reload.
	CorpusPath string
	// Classes restricts which conventions serve, mirroring
	// `hoiho -apply -classes`: "good", "usable" (default), or "all".
	Classes string
	// MaxInflight bounds concurrently executing extraction requests
	// (default 64).
	MaxInflight int
	// MaxQueue bounds requests waiting for admission beyond MaxInflight
	// (default 256).
	MaxQueue int
	// QueueWait bounds how long a request may wait for admission
	// (default 100ms).
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline applied to extraction
	// endpoints (default 5s).
	RequestTimeout time.Duration
	// MaxBatchBytes caps a POST /extract body (default 8 MiB).
	MaxBatchBytes int64
	// Log receives reload/drain/panic events; nil discards them.
	Log *log.Logger
}

// Server is the daemon core: an atomically swappable corpus snapshot
// behind admission control and lifecycle management. Create one with
// New, mount Handler on an http.Server, and call Drain before exit.
type Server struct {
	cfg        Config
	corpusOpts []extract.Option

	state      atomic.Pointer[snapshot] // currently serving corpus
	prev       atomic.Pointer[snapshot] // rollback target
	generation atomic.Uint64
	reloadMu   sync.Mutex // serializes Reload/Rollback/rollout phases

	// Rollout side buffer, last-failure record, and last rollout
	// outcome, guarded by reloadMu.
	prepared    *preparedCorpus
	lastErr     string
	lastErrAt   time.Time
	lastRollout *RolloutOutcome

	gate  *gate
	stats counters

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup // admitted extraction requests
}

// New builds a Server, applies Config defaults, and loads the initial
// corpus from cfg.CorpusPath — boot fails fast on a missing or invalid
// corpus rather than coming up unready.
func New(cfg Config) (*Server, error) {
	if cfg.CorpusPath == "" {
		return nil, fmt.Errorf("serve: Config.CorpusPath is required")
	}
	if cfg.Classes == "" {
		cfg.Classes = "usable"
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 8 << 20
	}
	opts, err := classOptions(cfg.Classes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		corpusOpts: opts,
		gate:       newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait),
	}
	if _, err := s.Reload(context.Background()); err != nil {
		return nil, err
	}
	return s, nil
}

// classOptions maps the -classes vocabulary onto extract options.
func classOptions(classes string) ([]extract.Option, error) {
	switch classes {
	case "all":
		return nil, nil
	case "usable":
		return []extract.Option{extract.UsableOnly()}, nil
	case "good":
		return []extract.Option{extract.MinClass(core.Good)}, nil
	default:
		return nil, fmt.Errorf("serve: unknown classes %q (want good, usable, or all)", classes)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// Handler returns the daemon's full HTTP surface. Extraction endpoints
// sit behind admission control and the per-request timeout; health and
// admin endpoints bypass both so they keep working under overload and
// during drain.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /extract", s.extraction(s.handleExtract))
	mux.HandleFunc("POST /extract", s.extraction(s.handleExtractBatch))
	mux.HandleFunc("POST /-/reload", s.handleReload)
	mux.HandleFunc("POST /-/rollback", s.handleRollback)
	mux.HandleFunc("GET /-/status", s.handleNodeStatus)
	mux.HandleFunc("POST /-/rollout/prepare", s.handlePrepare)
	mux.HandleFunc("POST /-/rollout/validate", s.handleValidate)
	mux.HandleFunc("POST /-/rollout/commit", s.handleCommit)
	mux.HandleFunc("POST /-/rollout/abort", s.handleAbort)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 while the process
// keeps serving every other request — the direct analog of the
// learner's per-suffix quarantine: one poisoned request must cost one
// response, not the daemon.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Add(1)
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				// Best effort: if the handler already wrote, this is a no-op.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// extraction wraps an extraction handler with the request lifecycle:
// drain gating, admission control, and the per-request deadline. The
// wrapped handler runs with a slot held and a context that expires.
func (s *Server) extraction(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if !s.admit() {
			s.stats.drained.Add(1)
			httpError(w, ErrDraining, s.cfg.QueueWait)
			return
		}
		defer s.depart()
		if err := s.gate.acquire(ctx); err != nil {
			if shed(err) {
				s.stats.shed.Add(1)
			}
			if errors.Is(err, context.DeadlineExceeded) {
				s.stats.deadline.Add(1)
			}
			httpError(w, err, s.cfg.QueueWait)
			return
		}
		defer s.gate.release()
		h(w, r)
	}
}

// admit registers an extraction request with the drain tracker; false
// means the server is draining and the request must be rejected. The
// read lock pairs with Drain's write lock so no request can slip in
// between the drain flag flipping and the WaitGroup being waited on.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) depart() { s.inflight.Done() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain is the graceful-shutdown entry point: it stops admitting
// extraction requests (readiness flips to 503 so load balancers pull
// the instance), then waits for every already-admitted request to
// finish. It returns nil when the daemon drained cleanly, or ctx's
// error when the deadline expired with requests still in flight.
// Draining is idempotent; later calls just wait again.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and the mux is serving. Always 200 —
	// a draining or corpus-less daemon is alive, just not ready.
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, ErrDraining, s.cfg.QueueWait)
		return
	}
	if s.state.Load() == nil {
		httpError(w, ErrNoCorpus, s.cfg.QueueWait)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// extractResponse is the JSON body of a single extraction.
type extractResponse struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn,omitempty"`
	Suffix   string `json:"suffix,omitempty"`
	Class    string `json:"class,omitempty"`
	Digits   string `json:"digits,omitempty"`
}

func toResponse(host string, m extract.Result) extractResponse {
	if !m.OK {
		return extractResponse{Hostname: host}
	}
	return extractResponse{
		Hostname: host,
		Found:    true,
		ASN:      uint32(m.ASN),
		Suffix:   m.Suffix,
		Class:    m.Class.String(),
		Digits:   m.Digits,
	}
}

// stamp marks the response with the exact corpus snapshot that produced
// it, so consumers (and the reload chaos tests) can detect mixed or
// misrouted responses across hot swaps. The values were rendered at
// publish; the keys are already in canonical form.
func stamp(w http.ResponseWriter, snap *snapshot) {
	h := w.Header()
	h["X-Hoiho-Corpus"] = snap.corpusHdr
	h["X-Hoiho-Generation"] = snap.genHdr
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	host := HostParam(r.URL.RawQuery)
	if host == "" {
		http.Error(w, "serve: missing host query parameter", http.StatusBadRequest)
		return
	}
	snap := s.state.Load()
	if snap == nil {
		httpError(w, ErrNoCorpus, s.cfg.QueueWait)
		return
	}
	if err := faultinject.Fire(r.Context(), faultinject.StageServeRequest, host); err != nil {
		httpError(w, err, s.cfg.QueueWait)
		return
	}
	if err := r.Context().Err(); err != nil {
		s.stats.deadline.Add(1)
		httpError(w, err, s.cfg.QueueWait)
		return
	}
	m, ok := snap.corpus.Extract(r.Context(), host)
	s.stats.served.Add(1)
	if ok {
		s.stats.found.Add(1)
	}
	stamp(w, snap)
	b := appendResponse(make([]byte, 0, 192), toResponse(host, m), "")
	writeExtract(w, append(b, '\n'))
}

// handleExtractBatch reads newline-separated hostnames (bounded by
// MaxBatchBytes) and returns one result per input line, in input
// order, all produced by a single corpus snapshot.
func (s *Server) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	snap := s.state.Load()
	if snap == nil {
		httpError(w, ErrNoCorpus, s.cfg.QueueWait)
		return
	}
	hosts, err := readHostLines(r, s.cfg.MaxBatchBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := faultinject.Fire(r.Context(), faultinject.StageServeRequest, "batch"); err != nil {
		httpError(w, err, s.cfg.QueueWait)
		return
	}
	results, err := snap.corpus.ExtractBatch(r.Context(), hosts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.stats.deadline.Add(1)
		}
		httpError(w, err, s.cfg.QueueWait)
		return
	}
	b := appendBatch(make([]byte, 0, 160*len(results)+8), len(results), func(i int) extractResponse {
		return toResponse(hosts[i], results[i])
	})
	s.stats.served.Add(1)
	s.stats.found.Add(countFound(results))
	stamp(w, snap)
	writeExtract(w, b)
}

func countFound(results []extract.Result) uint64 {
	var n uint64
	for _, r := range results {
		if r.OK {
			n++
		}
	}
	return n
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Reload(r.Context())
	if err != nil {
		s.logf("reload rejected: %v", err)
		// The old corpus keeps serving; the reload failure is the
		// caller's problem, not the daemon's.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.logf("reload: generation %d, %d NCs, corpus %s",
		snap.generation, snap.corpus.Len(), snap.corpus.FingerprintString())
	stamp(w, snap)
	writeJSON(w, http.StatusOK, s.snapshotStatus(snap))
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Rollback()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.logf("rollback: generation %d, corpus %s", snap.generation, snap.corpus.FingerprintString())
	stamp(w, snap)
	writeJSON(w, http.StatusOK, s.snapshotStatus(snap))
}

// Status is the /statusz document: the serving snapshot's identity plus
// the daemon's monotonic counters.
type Status struct {
	Source      string    `json:"source"`
	Generation  uint64    `json:"generation"`
	Fingerprint string    `json:"fingerprint"`
	NCs         int       `json:"ncs"`
	LoadedAt    time.Time `json:"loaded_at"`

	Draining bool  `json:"draining"`
	Inflight int   `json:"inflight"`
	Queued   int64 `json:"queued"`

	Requests       uint64 `json:"requests"`
	Served         uint64 `json:"served"`
	Found          uint64 `json:"found"`
	Shed           uint64 `json:"shed"`
	Drained        uint64 `json:"drained"`
	Deadline       uint64 `json:"deadline"`
	Panics         uint64 `json:"panics"`
	Reloads        uint64 `json:"reloads"`
	ReloadFailures uint64 `json:"reload_failures"`
	Rollbacks      uint64 `json:"rollbacks"`
}

func (s *Server) snapshotStatus(snap *snapshot) Status {
	st := Status{
		Draining:       s.Draining(),
		Inflight:       s.gate.inflight(),
		Queued:         s.gate.waiting(),
		Requests:       s.stats.requests.Load(),
		Served:         s.stats.served.Load(),
		Found:          s.stats.found.Load(),
		Shed:           s.stats.shed.Load(),
		Drained:        s.stats.drained.Load(),
		Deadline:       s.stats.deadline.Load(),
		Panics:         s.stats.panics.Load(),
		Reloads:        s.stats.reloads.Load(),
		ReloadFailures: s.stats.reloadFailures.Load(),
		Rollbacks:      s.stats.rollbacks.Load(),
	}
	if snap != nil {
		st.Source = snap.source
		st.Generation = snap.generation
		st.Fingerprint = snap.corpus.FingerprintString()
		st.NCs = snap.corpus.Len()
		st.LoadedAt = snap.loadedAt
	}
	return st
}

// StatusNow returns the current Status document (the programmatic twin
// of GET /statusz).
func (s *Server) StatusNow() Status { return s.snapshotStatus(s.state.Load()) }

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatusNow())
}

// readHostLines parses a batch body: one hostname per line, blank
// lines skipped, total size bounded by maxBytes so a hostile client
// cannot buffer the daemon into an OOM.
func readHostLines(r *http.Request, maxBytes int64) ([]string, error) {
	body, err := ReadBody(r, maxBytes)
	if err != nil {
		return nil, fmt.Errorf("serve: reading batch body: %w", err)
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("serve: batch body exceeds %d-byte cap", maxBytes)
	}
	rest := string(body)
	hosts := make([]string, 0, strings.Count(rest, "\n")+1)
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if h := strings.TrimSpace(line); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("serve: batch body contains no hostnames")
	}
	return hosts, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
