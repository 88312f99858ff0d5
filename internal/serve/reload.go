package serve

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// snapshot is one immutable, fully validated corpus generation. The
// server publishes snapshots through an atomic pointer: a request loads
// the pointer exactly once and serves entirely from that snapshot, so a
// concurrent swap can never mix two corpora inside one response.
type snapshot struct {
	corpus *extract.Corpus
	// source is the file the corpus was loaded from.
	source string
	// generation counts successful publishes since boot, starting at 1.
	generation uint64
	// loadedAt is when this snapshot was published.
	loadedAt time.Time
	// corpusHdr and genHdr are the X-Hoiho-Corpus and X-Hoiho-Generation
	// values, rendered once at publish; stamp shares them read-only.
	corpusHdr, genHdr []string
}

// newSnapshot builds the snapshot publishing corpus as generation gen.
func newSnapshot(corpus *extract.Corpus, source string, gen uint64) *snapshot {
	return &snapshot{
		corpus:     corpus,
		source:     source,
		generation: gen,
		loadedAt:   time.Now(),
		corpusHdr:  []string{corpus.FingerprintString()},
		genHdr:     []string{strconv.FormatUint(gen, 10)},
	}
}

// Reload loads a candidate corpus from the configured path into a side
// buffer, validates it (the hardened extract.Load refuses truncated,
// oversized, versionless, or empty corpora), and only then atomically
// publishes it. The previous snapshot is retained for Rollback. On any
// failure the running corpus is untouched — a poisoned file on disk
// costs a logged error, never an outage.
//
// Reloads are serialized; concurrent triggers (SIGHUP racing the admin
// endpoint) queue rather than interleave.
func (s *Server) Reload(ctx context.Context) (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := faultinject.Fire(ctx, faultinject.StageServeReload, s.cfg.CorpusPath); err != nil {
		s.stats.reloadFailures.Add(1)
		s.noteErrLocked(err)
		return nil, &ReloadError{Path: s.cfg.CorpusPath, Err: err}
	}
	corpus, err := extract.LoadFile(s.cfg.CorpusPath, s.corpusOpts...)
	if err != nil {
		s.stats.reloadFailures.Add(1)
		s.noteErrLocked(err)
		return nil, &ReloadError{Path: s.cfg.CorpusPath, Err: err}
	}
	snap := newSnapshot(corpus, s.cfg.CorpusPath, s.generation.Add(1))
	if old := s.state.Swap(snap); old != nil {
		s.prev.Store(old)
	}
	s.stats.reloads.Add(1)
	return snap, nil
}

// Rollback republishes the previous snapshot — the instant escape hatch
// when a reload validated but turned out to be semantically wrong (a
// stale or mislearned corpus). The rolled-back-from snapshot becomes
// the new "previous", so a second rollback swaps forward again.
func (s *Server) Rollback() (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev := s.prev.Load()
	if prev == nil {
		return nil, ErrNoRollback
	}
	// Republish under a fresh generation number so consumers watching
	// X-Hoiho-Generation see rollback as a distinct transition.
	snap := newSnapshot(prev.corpus, prev.source, s.generation.Add(1))
	if old := s.state.Swap(snap); old != nil {
		s.prev.Store(old)
	}
	s.stats.rollbacks.Add(1)
	return snap, nil
}

// counters is the daemon's monotonic stats block, all atomics so the
// hot path never takes a lock to account for itself.
type counters struct {
	requests       atomic.Uint64 // extraction requests received
	served         atomic.Uint64 // extraction responses written (found or not)
	found          atomic.Uint64 // extractions that produced an ASN
	shed           atomic.Uint64 // requests rejected by admission control
	drained        atomic.Uint64 // requests rejected because draining
	deadline       atomic.Uint64 // requests that blew their deadline in-handler
	panics         atomic.Uint64 // handler panics converted to 500s
	reloads        atomic.Uint64 // successful corpus publishes via Reload
	reloadFailures atomic.Uint64 // rejected reload attempts
	rollbacks      atomic.Uint64 // successful rollbacks
	prepares       atomic.Uint64 // rollout corpora staged into the side buffer
	commits        atomic.Uint64 // rollout side buffers published
	aborts         atomic.Uint64 // rollout side buffers dropped
}
