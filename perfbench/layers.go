package main

// Per-layer measurements for the traced run: in-process replays that
// time calls into each layer's public functions, and the self times
// derived from the spans of a traced phase.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/serve"
)

// replayReps is how many times each in-process replay repeats; the
// reported value is the median repetition.
const replayReps = 5

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn replayReps times and returns the median wall time of
// one run and the allocations of the last run.
func timed(fn func()) (time.Duration, uint64) {
	var ds []float64
	var allocs uint64
	for i := 0; i < replayReps; i++ {
		m0 := mallocs()
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
		allocs = mallocs() - m0
	}
	return time.Duration(median(ds)), allocs
}

// extractLayer replays a workload's hostnames through Corpus.Extract
// and its batches through ExtractBatch on the served corpus.
func extractLayer(m metrics, c *extract.Corpus, hosts []string, batches [][]string) {
	ctx := context.Background()
	found := 0
	for _, h := range hosts {
		if _, ok := c.Extract(ctx, h); ok {
			found++
		}
	}
	d, allocs := timed(func() {
		for _, h := range hosts {
			c.Extract(ctx, h)
		}
	})
	m.set("extract.host_ns", float64(d.Nanoseconds())/float64(len(hosts)))
	m.set("extract.host_allocs", float64(allocs)/float64(len(hosts)))
	m.set("extract.hit_ratio", float64(found)/float64(len(hosts)))
	n := 0
	d, _ = timed(func() {
		n = 0
		for _, b := range batches {
			c.ExtractBatch(ctx, b)
			n += len(b)
		}
	})
	m.set("extract.batch_ns_per_host", float64(d.Nanoseconds())/float64(n))
}

// sink is a reusable http.ResponseWriter that only counts bytes, so
// the in-process handler replays measure the handler, not a recorder.
type sink struct {
	h    http.Header
	n    int
	code int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) reset()                      { clear(s.h); s.code = 0 }

// serveLayer replays hostnames and batches through an in-process
// node's Handler().ServeHTTP on the corpus file the nodes booted from.
func serveLayer(m metrics, corpusPath string, hosts []string, batches [][]string) error {
	srv, err := serve.New(serve.Config{CorpusPath: corpusPath, Classes: "all"})
	if err != nil {
		return err
	}
	h := srv.Handler()
	w := &sink{h: make(http.Header)}
	if len(hosts) > 0 {
		reqs := make([]*http.Request, len(hosts))
		for i, host := range hosts {
			reqs[i] = httptest.NewRequest(http.MethodGet, "/extract?host="+host, nil)
		}
		var bytesOut int
		d, allocs := timed(func() {
			bytesOut = 0
			for _, r := range reqs {
				w.reset()
				h.ServeHTTP(w, r)
				bytesOut += w.n
				w.n = 0
				if w.code != http.StatusOK {
					err = fmt.Errorf("in-process GET /extract: status %d", w.code)
				}
			}
		})
		m.set("serve.get_inproc_us", float64(d.Nanoseconds())/1e3/float64(len(hosts)))
		m.set("serve.get_allocs", float64(allocs)/float64(len(hosts)))
		m.set("serve.resp_bytes_per_host", float64(bytesOut)/float64(len(hosts)))
	}
	if len(batches) > 0 {
		bodies := make([][]byte, len(batches))
		n := 0
		for i, b := range batches {
			bodies[i] = []byte(joinLines(b))
			n += len(b)
		}
		var bytesOut int
		d, allocs := timed(func() {
			bytesOut = 0
			for _, body := range bodies {
				w.reset()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)))
				bytesOut += w.n
				w.n = 0
				if w.code != http.StatusOK {
					err = fmt.Errorf("in-process POST /extract: status %d", w.code)
				}
			}
		})
		m.set("serve.batch_us_per_host", float64(d.Nanoseconds())/1e3/float64(n))
		m.set("serve.batch_allocs_per_host", float64(allocs)/float64(n))
		m.set("serve.resp_bytes_per_host", float64(bytesOut)/float64(n))
	}
	return err
}

// rolloutLayer times the corpus codec and delta steps of an A↔B epoch
// in-process, each on freshly loaded corpora so no memo carries over.
func rolloutLayer(m metrics, w *world) error {
	load := func(b []byte) (*extract.Corpus, error) { return extract.Load(bytes.NewReader(b)) }
	a, err := load(w.hbcA)
	if err != nil {
		return err
	}
	b, err := load(w.hbcB)
	if err != nil {
		return err
	}
	var delta bytes.Buffer
	if err := extract.Diff(a, b, &delta); err != nil {
		return err
	}
	var ds, as, ls, ss []float64
	for i := 0; i < replayReps; i++ {
		if a, err = load(w.hbcA); err != nil {
			return err
		}
		if b, err = load(w.hbcB); err != nil {
			return err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		if err := extract.Diff(a, b, &buf); err != nil {
			return err
		}
		ds = append(ds, msSince(t0))

		if a, err = load(w.hbcA); err != nil {
			return err
		}
		t0 = time.Now()
		applied, _, err := extract.ApplyDelta(a, delta.Bytes())
		as = append(as, msSince(t0))
		if err != nil {
			return err
		}
		if applied.FingerprintString() != w.corpB.FingerprintString() {
			return fmt.Errorf("ApplyDelta(A, A→B) does not give B")
		}

		t0 = time.Now()
		if _, err := load(w.hbcB); err != nil {
			return err
		}
		ls = append(ls, msSince(t0))

		if b, err = load(w.hbcB); err != nil {
			return err
		}
		buf.Reset()
		t0 = time.Now()
		if err := b.SaveBinary(&buf); err != nil {
			return err
		}
		ss = append(ss, msSince(t0))
	}
	m.set("extract.diff_ms", median(ds))
	m.set("extract.apply_delta_ms", median(as))
	m.set("extract.load_hbc_ms", median(ls))
	m.set("extract.save_hbc_ms", median(ss))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// learnLayer replays learning of every training set in-process, phase
// by phase: itdk.Parse, core.GroupItems, then core.NewSet and
// Set.Learn per suffix, serially; and Learner.LearnAll in parallel for
// the wall time the per-suffix sum is compared with. The per-suffix NCs
// must fingerprint like LearnAll's.
func learnLayer(m metrics, train []trainingSet) error {
	ctx := context.Background()
	list := psl.Default()
	var parse, group, newset, learn, top, wall, sufs, ncs []float64
	for rep := 0; rep < replayReps; rep++ {
		var p, g, ns, l, tp, wl float64
		var nsuf, nnc int
		for _, ts := range train {
			t0 := time.Now()
			snap, err := itdk.Parse(bytes.NewReader(ts.data))
			p += msSince(t0)
			if err != nil {
				return err
			}
			items := snap.TrainingItems()
			t0 = time.Now()
			groups, suffixes := core.GroupItems(list, items)
			g += msSince(t0)
			var learned []*core.NC
			for _, suf := range suffixes {
				t0 = time.Now()
				set, err := core.NewSet(suf, groups[suf], core.Options{})
				d := msSince(t0)
				ns += d
				if err != nil {
					return err
				}
				if set.Len() >= 4 {
					t1 := time.Now()
					nc, err := set.Learn(ctx)
					dl := msSince(t1)
					l += dl
					d += dl
					if err != nil {
						return err
					}
					if nc != nil {
						learned = append(learned, nc)
					}
				}
				tp = max(tp, d)
			}
			t0 = time.Now()
			all, err := (&core.Learner{MinItems: 4}).LearnAll(ctx, list, items)
			wl += msSince(t0)
			if err != nil {
				return err
			}
			sort.Slice(learned, func(i, j int) bool { return learned[i].Suffix < learned[j].Suffix })
			if core.FingerprintNCs(learned) != core.FingerprintNCs(all) {
				return fmt.Errorf("%s set: per-suffix replay learned other conventions than LearnAll", ts.method)
			}
			nsuf += len(suffixes)
			nnc += len(all)
		}
		parse, group, newset, learn = append(parse, p), append(group, g), append(newset, ns), append(learn, l)
		top, wall = append(top, tp), append(wall, wl)
		sufs, ncs = append(sufs, float64(nsuf)), append(ncs, float64(nnc))
	}
	m.set("itdk.parse_ms", median(parse))
	m.set("core.group_ms", median(group))
	m.set("core.newset_ms", median(newset))
	m.set("core.set_learn_ms", median(learn))
	m.set("core.top_suffix_ms", median(top))
	m.set("core.parallel_efficiency", (median(newset)+median(learn))/(median(wall)*float64(runtime.GOMAXPROCS(0))))
	m.set("core.suffixes", median(sufs))
	m.set("core.ncs", median(ncs))
	return nil
}

// getLayers derives the request-path self times of traced GETs (kind
// "lookup" or "read" client spans) from the spans of all processes.
// It returns the traced client median and the medians it attributes.
func getLayers(m metrics, all []span, kind string, hostNS float64) (client, node, router, http float64) {
	routerSpans := byID(all, "GET /extract")
	var cl, nd, rs, hs []float64
	for _, c := range all {
		if c.Proc != "client" || c.Name != kind {
			continue
		}
		var rt, nodes []span
		for _, s := range routerSpans[c.ID] {
			if s.Proc == "router" {
				rt = append(rt, s)
			} else {
				nodes = append(nodes, s)
			}
		}
		if len(rt) != 1 || len(nodes) == 0 {
			continue
		}
		cl = append(cl, float64(c.dur())/1e3)
		for _, n := range nodes {
			nd = append(nd, float64(n.dur())/1e3)
		}
		rs = append(rs, float64(selfTime(rt[0], nodes))/1e3)
		hs = append(hs, float64(selfTime(c, rt))/1e3)
	}
	if len(cl) == 0 {
		return 0, 0, 0, 0
	}
	nsorted := sorted(nd)
	m.set("serve.get_p50_us", quantile(nsorted, 0.5))
	m.set("serve.get_p99_us", quantile(nsorted, 0.99))
	m.set("serve.get_self_us", quantile(nsorted, 0.5)-hostNS/1e3)
	m.set("cluster.forward_self_us", median(rs))
	m.set("http.client_self_us", median(hs))
	return median(cl), quantile(nsorted, 0.5), median(rs), median(hs)
}

// batchLayers derives the batch forward self time per host.
func batchLayers(m metrics, all []span) {
	routerSpans := byID(all, "POST /extract")
	var rs, hs []float64
	for _, c := range all {
		if c.Proc != "client" || c.Name != "batch" {
			continue
		}
		var rt, nodes []span
		for _, s := range routerSpans[c.ID] {
			if s.Proc == "router" {
				rt = append(rt, s)
			} else {
				nodes = append(nodes, s)
			}
		}
		if len(rt) != 1 || len(nodes) == 0 {
			continue
		}
		rs = append(rs, float64(selfTime(rt[0], nodes))/1e3/batchSize)
		hs = append(hs, float64(selfTime(c, rt))/1e3)
	}
	if len(rs) > 0 {
		m.set("cluster.batch_forward_self_us_per_host", median(rs))
		m.set("http.client_self_us", median(hs))
	}
}

// epochLayers splits each traced epoch into the slowest node's span per
// phase and the coordinator's own remainder. It returns the medians of
// the epoch and of each part, in milliseconds.
func epochLayers(m metrics, all []span) (epoch, prep, val, com, self float64) {
	var es, ps, vs, cs, ss, bytesIn []float64
	prepares, hbd := 0, 0
	for _, e := range all {
		if e.Proc != "router" || e.Name != "POST /-/rollout" {
			continue
		}
		p := within(e, all, "POST /-/rollout/prepare")
		v := within(e, all, "POST /-/rollout/validate")
		c := within(e, all, "POST /-/rollout/commit")
		if len(p) == 0 || len(v) == 0 || len(c) == 0 {
			continue
		}
		for _, s := range p {
			prepares++
			if s.HBD {
				hbd++
			}
			bytesIn = append(bytesIn, float64(s.Bytes))
		}
		mp, mv, mc := longest(p), longest(v), longest(c)
		es = append(es, float64(e.dur())/1e6)
		ps = append(ps, float64(mp)/1e6)
		vs = append(vs, float64(mv)/1e6)
		cs = append(cs, float64(mc)/1e6)
		ss = append(ss, float64(e.dur()-mp-mv-mc)/1e6)
	}
	if len(es) == 0 {
		return 0, 0, 0, 0, 0
	}
	m.set("serve.prepare_ms", median(ps))
	m.set("serve.validate_ms", median(vs))
	m.set("serve.commit_ms", median(cs))
	m.set("serve.prepare_bytes", median(bytesIn))
	m.set("cluster.delta_share", float64(hbd)/float64(prepares))
	m.set("cluster.epoch_self_ms", median(ss))
	return median(es), median(ps), median(vs), median(cs), median(ss)
}

// joinLines is a batch body: one hostname per line.
func joinLines(hosts []string) string {
	var b bytes.Buffer
	for _, h := range hosts {
		b.WriteString(h)
		b.WriteByte('\n')
	}
	return b.String()
}
