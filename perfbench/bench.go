package main

// Workload definitions: set-up (repeated for setup_s) and measurement,
// and how each workload's samples become its metrics.
//
// The end-to-end metrics are the same five for every workload, so each
// run reports all of them:
//
//	rate_per_s  work completed per second: lookups, hostnames,
//	            rollout epochs, or training sets learned per second
//	            of hoiho run time
//	p50_ms      median latency of the request a user waits on: a
//	            lookup, a 1000-host batch, a lookup during rollouts
//	            (timed from its scheduled send), or a learning pass
//	tail_ms     p90 of the same (p99 is the per-layer e2e.p99_ms)
//	rss_mb      peak RSS of the largest node, or median peak of hoiho
//	setup_s     median set-up time
//
// NOTES.md maps them onto per-workload metric names and says why p90.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type workload struct {
	// setup builds the inputs (and the cluster, for serving workloads)
	// and returns the digest of everything the workload will send.
	setup func(ctx context.Context, b *bench, dir string, trace bool) (string, error)
	// measure runs the measured window and fills m.
	measure func(ctx context.Context, b *bench, dur time.Duration, trace bool, m metrics, out io.Writer) error
	// layers are the per-layer metrics a traced run of the workload
	// must measure. The other per-layer metrics belong to layers the
	// workload does not run and are reported as 0.
	layers []string
}

// Per-layer metric sets, by the part of the system that produces them.
var (
	servingLayers = []string{
		"serve.shed", "serve.deadline",
		"cluster.forwards_per_request", "cluster.hedges_per_request", "cluster.retries", "cluster.shed", "cluster.aborted",
		"http.client_self_us", "e2e.p99_ms", "trace.overhead_pct",
		"extract.host_ns", "extract.host_allocs", "extract.hit_ratio", "extract.batch_ns_per_host",
		"serve.resp_bytes_per_host",
	}
	getLayerNames = []string{
		"serve.get_p50_us", "serve.get_p99_us", "serve.get_self_us", "serve.get_inproc_us", "serve.get_allocs",
		"cluster.forward_self_us", "trace.unattributed_us",
	}
	batchLayerNames = []string{
		"serve.batch_us_per_host", "serve.batch_allocs_per_host", "cluster.batch_forward_self_us_per_host",
	}
	epochLayerNames = []string{
		"rollout.epoch_p50_ms", "rollout.epoch_p90_ms",
		"extract.diff_ms", "extract.apply_delta_ms", "extract.load_hbc_ms", "extract.save_hbc_ms",
		"serve.prepare_ms", "serve.validate_ms", "serve.commit_ms", "serve.prepare_bytes",
		"cluster.delta_share", "cluster.epoch_self_ms",
	}
	learnLayerNames = []string{
		"itdk.parse_ms", "core.group_ms", "core.newset_ms", "core.set_learn_ms", "core.top_suffix_ms",
		"core.parallel_efficiency", "core.suffixes", "core.ncs",
	}
)

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

var workloads = map[string]workload{
	"lookup-zipf":        {setup: setupLookup, measure: measureServing(lookupKind), layers: concat(servingLayers, getLayerNames)},
	"batch-annotate":     {setup: setupBatch, measure: measureServing(batchKind), layers: concat(servingLayers, batchLayerNames, epochLayerNames)},
	"rollout-under-read": {setup: setupRollout, measure: measureServing(rolloutKind), layers: concat(servingLayers, getLayerNames, epochLayerNames, []string{"loadgen.late_p99_us"})},
	"learn-eras":         {setup: setupLearn, measure: measureLearn, layers: learnLayerNames},
}

// warmup runs before every measured window: connections open, lazy
// state fills, and the answer cache of the verifier warms.
const warmup = 500 * time.Millisecond

// digestDraws is how many draws of each stream the input digest covers.
const digestDraws = 1000

// setupServing builds the world and boots the cluster on corpus A.
func setupServing(ctx context.Context, b *bench, dir string, trace bool) error {
	w, err := buildWorld(ctx, b.seed)
	if err != nil {
		return err
	}
	b.w, b.dir, b.current = w, dir, w.corpA
	b.cl, err = startCluster(dir, w.hbcA, trace)
	return err
}

func setupLookup(ctx context.Context, b *bench, dir string, trace bool) (string, error) {
	if err := setupServing(ctx, b, dir, trace); err != nil {
		return "", err
	}
	b.ver = newVerifier(b.w.corpA)
	b.streams = nil
	parts := [][]string{{b.w.digest}}
	for c := 0; c < conns(); c++ {
		b.streams = append(b.streams, newHostStream(b.seed, b.w.lookups, "conn", c))
		parts = append(parts, draws(newHostStream(b.seed, b.w.lookups, "conn", c), digestDraws))
	}
	return inputDigest(parts...), nil
}

func setupBatch(ctx context.Context, b *bench, dir string, trace bool) (string, error) {
	if err := setupServing(ctx, b, dir, trace); err != nil {
		return "", err
	}
	b.ver = newVerifier(b.w.corpA)
	b.batches, b.bodies = nil, nil
	parts := [][]string{{b.w.digest}}
	for k := 0; k < batchPool; k++ {
		hosts := makeBatch(b.seed, b.w.zone, k)
		b.batches = append(b.batches, hosts)
		b.bodies = append(b.bodies, []byte(joinLines(hosts)))
		parts = append(parts, hosts)
	}
	return inputDigest(parts...), nil
}

func setupRollout(ctx context.Context, b *bench, dir string, trace bool) (string, error) {
	if err := setupServing(ctx, b, dir, trace); err != nil {
		return "", err
	}
	b.ver = newVerifier(b.w.corpA, b.w.corpB)
	b.reader = newHostStream(b.seed, b.w.lookups, "read", 0)
	if err := b.seedJournal(ctx); err != nil {
		return "", err
	}
	return inputDigest([]string{b.w.digest}, draws(newHostStream(b.seed, b.w.lookups, "read", 0), digestDraws)), nil
}

func setupLearn(ctx context.Context, b *bench, dir string, _ bool) (string, error) {
	sets, digest, err := buildEras(ctx, b.seed)
	if err != nil {
		return "", err
	}
	b.train, b.dir = sets, dir
	for i, ts := range sets {
		if err := os.WriteFile(b.trainPath(i), ts.data, 0o644); err != nil {
			return "", err
		}
	}
	return digest, nil
}

type servingKind int

const (
	lookupKind servingKind = iota
	batchKind
	rolloutKind
)

// phaseFor runs the measured phase of a serving workload.
func (b *bench) phaseFor(ctx context.Context, k servingKind, dur time.Duration, traced bool) *phase {
	switch k {
	case lookupKind:
		return b.lookupPhase(ctx, dur, traced)
	case batchKind:
		return b.batchPhase(ctx, dur, traced)
	default:
		return b.rolloutPhase(ctx, dur, traced)
	}
}

// e2e turns a serving phase into the end-to-end metrics.
func e2e(k servingKind, p *phase, m metrics) {
	secs := p.elapsed.Seconds()
	var lat []float64
	switch k {
	case lookupKind:
		lat = p.lat["lookup"]
		m.set("rate_per_s", float64(p.okCount("lookup"))/secs)
	case batchKind:
		lat = p.lat["batch"]
		m.set("rate_per_s", float64(p.hosts)/secs)
	default:
		lat = p.lat["read"]
		m.set("rate_per_s", float64(p.okCount("epoch"))/secs)
		ep := sorted(p.lat["epoch"])
		m.set("rollout.epoch_p50_ms", quantile(ep, 0.5)/1e3)
		m.set("rollout.epoch_p90_ms", quantile(ep, 0.9)/1e3)
		m.set("loadgen.late_p99_us", quantile(sorted(p.late), 0.99))
	}
	s := sorted(lat)
	m.set("p50_ms", quantile(s, 0.5)/1e3)
	m.set("tail_ms", quantile(s, 0.9)/1e3)
	m.set("e2e.p99_ms", quantile(s, 0.99)/1e3)
}

// measureServing measures a serving workload. Untraced, the whole
// window is measured; traced, untraced and traced slices alternate, and
// the per-layer metrics come from the traced ones.
func measureServing(k servingKind) func(context.Context, *bench, time.Duration, bool, metrics, io.Writer) error {
	return func(ctx context.Context, b *bench, dur time.Duration, trace bool, m metrics, out io.Writer) error {
		b.phaseFor(ctx, k, warmup, false)
		if !trace {
			p := b.phaseFor(ctx, k, dur, false)
			if err := b.cl.stop(); err != nil {
				return err
			}
			e2e(k, p, m)
			m.set("rss_mb", b.cl.peakNodeRSSMB())
			b.cl = nil
			printSamples(out, k, p)
			return nil
		}
		// Alternate untraced and traced slices so drift over the run
		// does not masquerade as tracing overhead.
		const slices = 4
		plain, p := newPhase(), newPhase()
		var rc routerCounters // counter deltas over the traced slices
		var nc nodeCounters
		for i := 0; i < slices; i++ {
			on := i%2 == 1
			if err := b.cl.setTrace(on); err != nil {
				return err
			}
			r0, err := b.cl.routerStatus()
			if err != nil {
				return err
			}
			n0, err := b.cl.nodeTotals()
			if err != nil {
				return err
			}
			q := b.phaseFor(ctx, k, dur/slices, on)
			r1, err := b.cl.routerStatus()
			if err != nil {
				return err
			}
			n1, err := b.cl.nodeTotals()
			if err != nil {
				return err
			}
			if !on {
				plain.merge(q)
				plain.elapsed += q.elapsed
				continue
			}
			p.merge(q)
			p.elapsed += q.elapsed
			rc.add(r0, r1)
			nc.add(n0, n1)
		}
		if k == batchKind {
			q, aborted, err := b.epochBurst(ctx, dur/slices)
			if err != nil {
				return err
			}
			p.spans = append(p.spans, q.spans...)
			rc.Aborted += aborted
			ep := sorted(q.lat["epoch"])
			m.set("rollout.epoch_p50_ms", quantile(ep, 0.5)/1e3)
			m.set("rollout.epoch_p90_ms", quantile(ep, 0.9)/1e3)
			fmt.Fprintf(out, "rollout burst: %d epochs, p50 %.2f ms, p90 %.2f ms (%d beyond)\n",
				len(ep), quantile(ep, 0.5)/1e3, quantile(ep, 0.9)/1e3, beyond(len(ep), 0.9))
		}
		untraced := metrics{}
		e2e(k, plain, untraced)
		cl := b.cl
		b.cl = nil
		if err := cl.stop(); err != nil {
			return err
		}
		spans, err := cl.spans()
		if err != nil {
			return err
		}
		spans = append(spans, p.spans...)
		traced := metrics{}
		e2e(k, p, traced)
		for _, name := range []string{"e2e.p99_ms", "rollout.epoch_p50_ms", "rollout.epoch_p90_ms", "loadgen.late_p99_us"} {
			if v, ok := untraced[name]; ok {
				m[name] = v
			}
		}
		reqs := float64(rc.Requests)
		m.set("cluster.forwards_per_request", float64(rc.Forwards)/reqs)
		m.set("cluster.hedges_per_request", float64(rc.Hedges)/reqs)
		m.set("cluster.retries", float64(rc.Retries))
		m.set("cluster.shed", float64(rc.Shed))
		m.set("cluster.aborted", float64(rc.Aborted))
		m.set("serve.shed", float64(nc.Shed))
		m.set("serve.deadline", float64(nc.Deadline))
		overhead := 100 * (traced["p50_ms"].Value - untraced["p50_ms"].Value) / untraced["p50_ms"].Value
		m.set("trace.overhead_pct", overhead)
		fmt.Fprintf(out, "tracing overhead: p50 %.4f ms untraced, %.4f ms traced (%+.1f%%)\n",
			untraced["p50_ms"].Value, traced["p50_ms"].Value, overhead)
		return b.layers(k, spans, m, out)
	}
}

// layers computes the per-layer metrics of a traced serving run.
func (b *bench) layers(k servingKind, spans []span, m metrics, out io.Writer) error {
	corpusPath := filepath.Join(b.dir, "inproc-a.hbc")
	if err := os.WriteFile(corpusPath, b.w.hbcA, 0o644); err != nil {
		return err
	}
	switch k {
	case lookupKind, rolloutKind:
		entity, kind := "conn", "lookup"
		if k == rolloutKind {
			entity, kind = "read", "read"
		}
		hosts := draws(newHostStream(b.seed, b.w.lookups, entity, 0), 20000)
		extractLayer(m, b.w.corpA, hosts, chunk(hosts, batchSize))
		if err := serveLayer(m, corpusPath, hosts[:5000], nil); err != nil {
			return err
		}
		// The router and client self times are each request's span minus
		// the spans below it, so they leave no remainder by themselves.
		// The node's share is instead taken from the independent
		// in-process handler replay: what remains is node-side time the
		// replay does not see (live server, tracing, contention) plus
		// the non-additivity of medians.
		hostNS := m["extract.host_ns"].Value
		handler := m["serve.get_inproc_us"].Value
		client, node, router, httpSelf := getLayers(m, spans, kind, hostNS)
		rest := client - httpSelf - router - handler
		fmt.Fprintf(out, "traced %s p50 %.1f us = http/client self %.1f + cluster forward self %.1f + in-process node handler %.1f (extract %.1f) + unattributed %.1f (node span p50 %.1f)\n",
			kind, client, httpSelf, router, handler, hostNS/1e3, rest, node)
		m.set("trace.unattributed_us", rest)
	case batchKind:
		var hosts []string
		for _, bt := range b.batches {
			hosts = append(hosts, bt...)
		}
		extractLayer(m, b.w.corpA, hosts, b.batches)
		if err := serveLayer(m, corpusPath, nil, b.batches[:16]); err != nil {
			return err
		}
		batchLayers(m, spans)
	}
	if k == lookupKind {
		return nil
	}
	if err := rolloutLayer(m, b.w); err != nil {
		return err
	}
	epoch, prep, val, com, self := epochLayers(m, spans)
	fmt.Fprintf(out, "traced epoch p50 %.2f ms = prepare %.2f + validate %.2f + commit %.2f (slowest node each) + coordinator self %.2f + unattributed %.2f\n",
		epoch, prep, val, com, self, epoch-prep-val-com-self)
	return nil
}

// epochBurst runs traced rollout epochs, without reads, for dur on the
// batch-annotate cluster once its traced slices are done.
// rollout-under-read, whose traced run measures the rollout layers under
// read load, is not among BENCHMARK.json's workloads because its figures
// do not repeat on a shared 2-vCPU VM (NOTES.md), so this burst measures
// the same layers on a workload that is. It returns the epochs and the
// growth of the router's aborted-rollout counter.
func (b *bench) epochBurst(ctx context.Context, dur time.Duration) (*phase, uint64, error) {
	// The full-corpus seeding epoch stays out of the spans.
	if err := b.cl.setTrace(false); err != nil {
		return nil, 0, err
	}
	if err := b.seedJournal(ctx); err != nil {
		return nil, 0, err
	}
	if err := b.cl.setTrace(true); err != nil {
		return nil, 0, err
	}
	r0, err := b.cl.routerStatus()
	if err != nil {
		return nil, 0, err
	}
	q := b.epochLoop(ctx, time.Now().Add(dur), true)
	r1, err := b.cl.routerStatus()
	if err != nil {
		return nil, 0, err
	}
	return q, r1.Aborted - r0.Aborted, nil
}

func chunk(hosts []string, n int) [][]string {
	var out [][]string
	for len(hosts) >= n {
		out = append(out, hosts[:n])
		hosts = hosts[n:]
	}
	return out
}

// measureLearn measures learn-eras: hoiho subprocess passes; traced,
// the second half is the in-process per-phase replay instead.
func measureLearn(ctx context.Context, b *bench, dur time.Duration, trace bool, m metrics, out io.Writer) error {
	b.learnPhase(ctx, 0) // one warm-up pass
	window := dur
	if trace {
		window = dur / 2
	}
	p := b.learnPhase(ctx, window)
	runs := p.lat["run"]
	var wall float64 // hoiho's own run times, no harness work
	for _, v := range runs {
		wall += v
	}
	s := sorted(passTimes(runs, len(b.train)))
	m.set("rate_per_s", float64(len(runs))/(wall/1e6))
	m.set("p50_ms", quantile(s, 0.5)/1e3)
	m.set("tail_ms", quantile(s, 0.9)/1e3)
	m.set("rss_mb", median(p.rss))
	fmt.Fprintf(out, "learn: %d runs over %d training sets, %d passes (every %d consecutive runs); learn_s %.4f s, p90 %.4f s (%d beyond), learn_rss_mb %.1f MB\n",
		len(runs), len(b.train), len(s), len(b.train), quantile(s, 0.5)/1e6, quantile(s, 0.9)/1e6, beyond(len(s), 0.9), median(p.rss))
	if !trace {
		return nil
	}
	// Learning has no span wrappers, so no tracing overhead; its layers
	// are timed by replay.
	if err := learnLayer(m, b.train); err != nil {
		b.tally.add(err)
	}
	fmt.Fprintf(out, "learn replay: parse %.2f + group %.2f + newset %.2f + set learn %.2f ms serial; slowest suffix %.2f ms; parallel efficiency %.2f\n",
		m["itdk.parse_ms"].Value, m["core.group_ms"].Value, m["core.newset_ms"].Value, m["core.set_learn_ms"].Value,
		m["core.top_suffix_ms"].Value, m["core.parallel_efficiency"].Value)
	return nil
}

// printSamples prints the sample counts behind each percentile.
func printSamples(out io.Writer, k servingKind, p *phase) {
	for _, kind := range []string{"lookup", "batch", "read", "epoch"} {
		n := len(p.lat[kind])
		if n == 0 {
			continue
		}
		s := sorted(p.lat[kind])
		fmt.Fprintf(out, "%s: %d samples, p50 %.1f us, p90 %.1f us (%d beyond), p99 %.1f us (%d beyond)\n",
			kind, n, quantile(s, 0.5), quantile(s, 0.9), beyond(n, 0.9), quantile(s, 0.99), beyond(n, 0.99))
	}
	if k == rolloutKind && len(p.late) > 0 {
		l := sorted(p.late)
		fmt.Fprintf(out, "loadgen lateness p50 %.1f us, p90 %.1f us, p99 %.1f us\n", quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99))
	}
}
