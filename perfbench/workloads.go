package main

// The four workloads. Each measured phase runs for a fixed duration
// and returns its samples; the caller turns phases into metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hoiho/internal/extract"
)

// tally counts every checked operation of a run, warm-up included.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  error
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// phase is one measured window's samples. Latencies are in
// microseconds; a failed operation is recorded as +Inf, so it counts as
// missing every latency limit.
type phase struct {
	elapsed time.Duration
	lat     map[string][]float64 // op kind → latencies (µs)
	late    []float64            // open-loop send lateness (µs)
	hosts   int64                // hostnames answered (batch)
	spans   []span               // client spans (traced phases)
	rss     []float64            // peak RSS per hoiho run (MB)
}

func newPhase() *phase { return &phase{lat: make(map[string][]float64)} }

func (p *phase) merge(q *phase) {
	for k, v := range q.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	p.late = append(p.late, q.late...)
	p.hosts += q.hosts
	p.spans = append(p.spans, q.spans...)
	p.rss = append(p.rss, q.rss...)
}

// okCount is the number of finite (successful) samples of kind.
func (p *phase) okCount(kind string) int {
	n := 0
	for _, v := range p.lat[kind] {
		if v < inf {
			n++
		}
	}
	return n
}

var inf = 1e300

// conns is the client connection count: one per core, as the load
// comes from a single process with at most nproc connections.
func conns() int { return runtime.NumCPU() }

// bench holds one run's set-up and the state that carries from the
// warm-up into the measured phases (streams continue, ids stay unique).
type bench struct {
	seed    int64
	dir     string
	hoiho   string
	w       *world
	cl      *fleet
	ver     *verifier
	tally   tally
	streams []*hostStream // lookup connections
	reader  *hostStream   // rollout-under-read reader
	bodies  [][]byte      // batch pool bodies
	batches [][]string    // batch pool hostnames
	seq     []int         // per-connection request counter
	current *extract.Corpus
	epochs  int
	digest  string
	train   []trainingSet // learn-eras: every era's training sets
}

// getOnce sends one GET /extract and checks it. id, when set, is the
// span correlation id.
func (b *bench) getOnce(ctx context.Context, c *http.Client, host, id string) error {
	u := b.cl.router.url + "/extract?host=" + url.QueryEscape(host)
	if id != "" {
		u += "&" + traceParam + "=" + id
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return b.ver.check(resp, body, host, []string{host}, false)
}

// postBatch sends pool batch k and checks the answers.
func (b *bench) postBatch(ctx context.Context, c *http.Client, k int, id string) error {
	u := b.cl.router.url + "/extract"
	if id != "" {
		u += "?" + traceParam + "=" + id
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(b.bodies[k]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return b.ver.check(resp, body, "#"+strconv.Itoa(k), b.batches[k], true)
}

// closedLoop runs op on every connection back to back until dur
// elapses, recording latency under kind. op gets the connection index
// and a per-connection sequence number.
func (b *bench) closedLoop(ctx context.Context, dur time.Duration, kind string, traced bool, op func(ctx context.Context, c *http.Client, conn, seq int, id string) (hosts int, err error)) *phase {
	n := conns()
	parts := make([]*phase, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < n; i++ {
		parts[i] = newPhase()
		wg.Add(1)
		go func(conn int, p *phase) {
			defer wg.Done()
			client := connClient()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				seq := b.seq[conn]
				b.seq[conn]++
				id := ""
				if traced {
					id = fmt.Sprintf("c%d-%d", conn, seq)
				}
				t0 := time.Now()
				hosts, err := op(ctx, client, conn, seq, id)
				t1 := time.Now()
				b.tally.add(err)
				if err != nil {
					p.lat[kind] = append(p.lat[kind], inf)
					continue
				}
				p.lat[kind] = append(p.lat[kind], float64(t1.Sub(t0).Nanoseconds())/1e3)
				p.hosts += int64(hosts)
				if traced {
					p.spans = append(p.spans, span{Proc: "client", Name: kind, ID: id, Start: t0.UnixNano(), End: t1.UnixNano()})
				}
			}
		}(i, parts[i])
	}
	wg.Wait()
	out := newPhase()
	out.elapsed = time.Since(start)
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// lookupPhase is lookup-zipf: single-host GETs through the router,
// hop-weighted over the zone, closed loop on every connection.
func (b *bench) lookupPhase(ctx context.Context, dur time.Duration, traced bool) *phase {
	return b.closedLoop(ctx, dur, "lookup", traced, func(ctx context.Context, c *http.Client, conn, _ int, id string) (int, error) {
		return 1, b.getOnce(ctx, c, b.streams[conn].next(), id)
	})
}

// batchPhase is batch-annotate: 1000-host POST bodies through the
// router, closed loop on every connection. Connection c sends batches
// c, c+n, c+2n, ... so a batch's content depends only on its index.
func (b *bench) batchPhase(ctx context.Context, dur time.Duration, traced bool) *phase {
	n := conns()
	return b.closedLoop(ctx, dur, "batch", traced, func(ctx context.Context, c *http.Client, conn, seq int, id string) (int, error) {
		k := (seq*n + conn) % batchPool
		return batchSize, b.postBatch(ctx, c, k, id)
	})
}

// readRate is rollout-under-read's open-loop read rate: well under the
// single connection's capacity (about 3k/s), so queueing comes from the
// rollouts, not from the reads themselves.
const readRate = 500

// sleepUntil blocks until t. A Go timer fires up to a millisecond late
// here (the runtime's poller waits in whole milliseconds), which would
// dominate a sub-millisecond read; nanosleep wakes within about 0.1ms.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// rolloutPhase is rollout-under-read: back-to-back rollout epochs
// alternating A and B on one connection, beside open-loop reads at
// readRate on the remaining connection. Read latency runs from each
// read's scheduled send time.
func (b *bench) rolloutPhase(ctx context.Context, dur time.Duration, traced bool) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	readsDone := make(chan *phase, 1)
	go func() { readsDone <- b.openLoopReads(ctx, start, deadline, traced) }()
	out := b.epochLoop(ctx, deadline, traced)
	reads := <-readsDone
	out.elapsed = time.Since(start)
	out.merge(reads)
	return out
}

// epochLoop runs rollout epochs alternating A and B back to back on
// one connection until deadline, checking each.
func (b *bench) epochLoop(ctx context.Context, deadline time.Time, traced bool) *phase {
	out := newPhase()
	client := connClient()
	defer client.CloseIdleConnections()
	for ctx.Err() == nil && time.Now().Before(deadline) {
		target := b.w.corpB
		body := b.w.hbcB
		if b.current == b.w.corpB {
			target, body = b.w.corpA, b.w.hbcA
		}
		id := ""
		if traced {
			id = "e" + strconv.Itoa(b.epochs)
		}
		b.epochs++
		t0 := time.Now()
		fp, err := b.rollout(ctx, client, body, id)
		t1 := time.Now()
		if err == nil {
			err = b.checkEpoch(ctx, fp, target)
		}
		b.tally.add(err)
		if err != nil {
			out.lat["epoch"] = append(out.lat["epoch"], inf)
			continue
		}
		b.current = target
		out.lat["epoch"] = append(out.lat["epoch"], float64(t1.Sub(t0).Nanoseconds())/1e3)
		if traced {
			out.spans = append(out.spans, span{Proc: "client", Name: "epoch", ID: id, Start: t0.UnixNano(), End: t1.UnixNano()})
		}
	}
	return out
}

// seedJournal rolls corpus A out in full. The first epoch has no
// committed base in the router's journal and ships the full corpus; it
// seeds the base every later epoch diffs against.
func (b *bench) seedJournal(ctx context.Context) error {
	c := connClient()
	defer c.CloseIdleConnections()
	fp, err := b.rollout(ctx, c, b.w.hbcA, "")
	if err == nil {
		err = b.checkEpoch(ctx, fp, b.w.corpA)
	}
	if err != nil {
		return fmt.Errorf("seeding the journal: %w", err)
	}
	b.current = b.w.corpA
	return nil
}

// openLoopReads sends one read every 1/readRate from start until
// deadline on its own connection.
func (b *bench) openLoopReads(ctx context.Context, start, deadline time.Time, traced bool) *phase {
	reads := newPhase()
	client := connClient()
	defer client.CloseIdleConnections()
	interval := time.Second / readRate
	var prevDone time.Time
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		sleepUntil(due)
		sent := time.Now()
		id := ""
		if traced {
			id = fmt.Sprintf("r%d", b.seq[0])
		}
		b.seq[0]++
		err := b.getOnce(ctx, client, b.reader.next(), id)
		done := time.Now()
		b.tally.add(err)
		// The generator's own lateness: time past the later of the due
		// time and the previous read's completion (waiting for that is
		// queueing, which the read latency already holds).
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		reads.late = append(reads.late, float64(sent.Sub(ready).Nanoseconds())/1e3)
		prevDone = done
		if err != nil {
			reads.lat["read"] = append(reads.lat["read"], inf)
			continue
		}
		reads.lat["read"] = append(reads.lat["read"], float64(done.Sub(due).Nanoseconds())/1e3)
		if traced {
			reads.spans = append(reads.spans, span{Proc: "client", Name: "read", ID: id, Start: sent.UnixNano(), End: done.UnixNano()})
		}
	}
	return reads
}

// rollout posts one corpus to the router's /-/rollout and returns the
// committed fingerprint.
func (b *bench) rollout(ctx context.Context, c *http.Client, body []byte, id string) (string, error) {
	u := b.cl.router.url + "/-/rollout"
	if id != "" {
		u += "?" + traceParam + "=" + id
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("rollout: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var res struct {
		Fingerprint string `json:"fingerprint"`
		Nodes       []struct {
			Node string `json:"node"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return "", fmt.Errorf("rollout result: %w", err)
	}
	if len(res.Nodes) != clusterNodes {
		return "", fmt.Errorf("rollout committed on %d nodes, want %d", len(res.Nodes), clusterNodes)
	}
	return res.Fingerprint, nil
}

// checkEpoch verifies a committed epoch: the result names the target
// corpus, and every node's /-/status serves that fingerprint.
func (b *bench) checkEpoch(ctx context.Context, fp string, target *extract.Corpus) error {
	if want := target.FingerprintString(); fp != want {
		return fmt.Errorf("rollout result fingerprint %s, want %s", fp, want)
	}
	fps, err := b.cl.nodeFingerprints(ctx)
	if err != nil {
		return err
	}
	for i, got := range fps {
		if got != fp {
			return fmt.Errorf("after epoch: node%d serves %s, epoch committed %s", i, got, fp)
		}
	}
	return nil
}

// learnPhase is learn-eras: `hoiho -format itdk -save` over each
// training set in turn, as subprocesses, until dur elapses (at least
// one pass). Each run is timed around the hoiho process alone and
// recorded, in order, under "run"; a failed run is recorded as +Inf.
func (b *bench) learnPhase(ctx context.Context, dur time.Duration) *phase {
	out := newPhase()
	start := time.Now()
	deadline := start.Add(dur)
	for pass := 0; ctx.Err() == nil && (pass == 0 || time.Now().Before(deadline)); pass++ {
		var rss float64
		for i := range b.train {
			d, mb, err := b.learnOnce(ctx, i)
			b.tally.add(err)
			if err != nil {
				out.lat["run"] = append(out.lat["run"], inf)
				continue
			}
			out.lat["run"] = append(out.lat["run"], float64(d.Nanoseconds())/1e3)
			rss = max(rss, mb)
		}
		out.rss = append(out.rss, rss)
	}
	return out
}

// learnOnce runs hoiho on training set i and checks the saved corpus
// against the in-process LearnAll fingerprint.
func (b *bench) learnOnce(ctx context.Context, i int) (time.Duration, float64, error) {
	in := b.trainPath(i)
	out := filepath.Join(b.dir, "learned.hbc")
	os.Remove(out)
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-role", "run", "--", b.hoiho, "-format", "itdk", "-save", out, in)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	line, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("hoiho on %s: %w: %s", in, err, strings.TrimSpace(stderr.String()))
	}
	var ns, kb int64
	if _, err := fmt.Sscan(string(line), &ns, &kb); err != nil {
		return 0, 0, fmt.Errorf("hoiho on %s: measurement line %q: %w", in, line, err)
	}
	d, mb := time.Duration(ns), float64(kb)/1024
	c, err := extract.LoadFile(out)
	if err != nil {
		return 0, 0, fmt.Errorf("hoiho saved corpus: %w", err)
	}
	if got, want := c.FingerprintString(), b.train[i].fp; got != want {
		return 0, 0, fmt.Errorf("hoiho on %s saved fingerprint %s, in-process LearnAll gives %s", in, got, want)
	}
	return d, mb, nil
}

// trainPath is where training set i is written for hoiho to read.
func (b *bench) trainPath(i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("train-%d-%s.txt", i/2, b.train[i].method))
}
