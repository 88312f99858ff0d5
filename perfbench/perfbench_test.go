package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child
// processes, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestPassTimes(t *testing.T) {
	// Two passes over three inputs: runs a0 b0 c0 a1 b1 c1.
	got := passTimes([]float64{1, 10, 100, 2, 20, 200}, 3)
	want := []float64{111, 112, 122, 222}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("passTimes = %v, want %v", got, want)
	}
	if got := passTimes([]float64{1, 2}, 3); len(got) != 0 {
		t.Errorf("fewer runs than inputs gave passes %v", got)
	}
}

func TestReportRequiresMeasuredLayers(t *testing.T) {
	want := []specMetric{{Name: "a.us", Unit: "us"}, {Name: "b.count", Unit: "count"}}
	measured := metrics{"a.us": {Value: 1.5}, "other": {Value: 9}}
	out, err := report(measured, want, []string{"a.us"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, metrics{"a.us": {Value: 1.5, Unit: "us"}, "b.count": {Value: 0, Unit: "count"}}) {
		t.Errorf("report = %v", out)
	}
	if _, err := report(measured, want, []string{"a.us", "b.count"}); err == nil {
		t.Error("a required metric that was not measured passed")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := report(metrics{"a.us": {Value: bad}}, want, []string{"a.us"}); err == nil {
			t.Errorf("required metric %v passed", bad)
		}
	}
}

// TestWorkloadLayersAreDeclared: every per-layer metric a workload
// promises is in BENCHMARK.json, and every per-layer metric of
// BENCHMARK.json is promised by some workload.
func TestWorkloadLayersAreDeclared(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[string]bool{}
	for _, m := range sp.PerLayer {
		perLayer[m.Name] = true
	}
	used := map[string]bool{}
	for _, w := range sp.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %s, which does not exist", w.Name)
		}
		for _, name := range wl.layers {
			if !perLayer[name] {
				t.Errorf("%s promises %s, not a per-layer metric of BENCHMARK.json", w.Name, name)
			}
			if used[name+"|"+w.Name] {
				t.Errorf("%s promises %s twice", w.Name, name)
			}
			used[name+"|"+w.Name], used[name] = true, true
		}
	}
	for name := range perLayer {
		if !used[name] {
			t.Errorf("no workload measures %s", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping hedge", []span{{Start: 110, End: 160}, {Start: 140, End: 180}}, 30},
		{"nested child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child past the parent", []span{{Start: 150, End: 260}}, 50},
		{"child outside the parent", []span{{Start: 10, End: 90}}, 100},
		{"touching children", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestQueryValue(t *testing.T) {
	if got := queryValue("host=a.example.net&pbid=c1-7", traceParam); got != "c1-7" {
		t.Errorf("got %q", got)
	}
	if got := queryValue("pbid=e3", traceParam); got != "e3" {
		t.Errorf("got %q", got)
	}
	if got := queryValue("host=x", traceParam); got != "" {
		t.Errorf("got %q for a query without the id", got)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	in := []span{
		{Proc: "router", Name: "GET /extract", ID: "c0-1", Parent: "client", Start: 1, End: 5},
		{Proc: "node0", Name: "POST /-/rollout/prepare", Start: 2, End: 4, Bytes: 100, HBD: true},
	}
	if err := writeSpans(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	if s, err := readSpans(filepath.Join(t.TempDir(), "missing")); err != nil || s != nil {
		t.Errorf("missing file: %v, %v", s, err)
	}
}

func TestStreamsAreDeterministicPerEntity(t *testing.T) {
	zone := make([]string, 500)
	hops := make([]int64, len(zone))
	for i := range zone {
		zone[i] = "h" + strconv.Itoa(i) + ".example.net"
		hops[i] = int64(i % 7)
	}
	w := newHopWeights(zone, hops)
	a := draws(newHostStream(7, w, "conn", 0), 200)
	b := draws(newHostStream(7, w, "conn", 0), 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and entity drew different hostnames")
	}
	if reflect.DeepEqual(a, draws(newHostStream(7, w, "conn", 1), 200)) {
		t.Error("two connections drew the same stream")
	}
	if reflect.DeepEqual(a, draws(newHostStream(8, w, "conn", 0), 200)) {
		t.Error("two seeds drew the same stream")
	}
	if inputDigest(a) != inputDigest(b) || inputDigest(a) == inputDigest(a[1:]) {
		t.Error("input digest does not follow the inputs")
	}
	// An entity's stream does not depend on other entities' use.
	s0 := newHostStream(7, w, "conn", 0)
	other := newHostStream(7, w, "conn", 1)
	draws(other, 1000)
	if !reflect.DeepEqual(a, draws(s0, 200)) {
		t.Error("stream changed after another entity drew")
	}
	if !reflect.DeepEqual(makeBatch(3, zone, 5), makeBatch(3, zone, 5)) {
		t.Error("batch 5 differs between two builds")
	}
	if reflect.DeepEqual(makeBatch(3, zone, 5), makeBatch(3, zone, 6)) {
		t.Error("batches 5 and 6 are equal")
	}
}

func TestHopWeighting(t *testing.T) {
	zone := []string{"never.example.net", "once.example.net", "thrice.example.net", "gone.example.net"}
	w := newHopWeights(zone, []int64{0, 1, 3, 0})
	if !reflect.DeepEqual(w.names, zone[1:3]) || !reflect.DeepEqual(w.cum, []int64{1, 4}) {
		t.Fatalf("weights: names %v, cum %v", w.names, w.cum)
	}
	counts := map[string]int{}
	const n = 40000
	for _, h := range draws(newHostStream(1, w, "conn", 0), n) {
		counts[h]++
	}
	if counts[zone[0]]+counts[zone[3]] != 0 {
		t.Errorf("names that never answered a hop were drawn: %v", counts)
	}
	if r := float64(counts[zone[2]]) / float64(counts[zone[1]]); r < 2.7 || r > 3.3 {
		t.Errorf("draws of a 3-hop name over a 1-hop name = %.2f, want about 3", r)
	}
}

func TestVerifier(t *testing.T) {
	ctx := context.Background()
	w, err := buildWorld(ctx, 11)
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(w.corpA)
	var host string
	for _, h := range w.zone {
		if _, ok := w.corpA.Extract(ctx, h); ok {
			host = h
			break
		}
	}
	good := []byte(`{"hostname":"` + host + `","found":true,"asn":` + strconv.FormatUint(uint64(expect(w.corpA, host).ASN), 10) +
		`,"suffix":"` + expect(w.corpA, host).Suffix + `","class":"` + expect(w.corpA, host).Class +
		`","digits":"` + expect(w.corpA, host).Digits + `"}`)
	resp := func(fp string) *http.Response {
		r := &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{}}
		r.Header.Set("X-Hoiho-Corpus", fp)
		return r
	}
	if err := v.check(resp(w.corpA.FingerprintString()), good, host, []string{host}, false); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	// The repeat path compares checksums.
	if err := v.check(resp(w.corpA.FingerprintString()), good, host, []string{host}, false); err != nil {
		t.Fatalf("repeated correct answer rejected: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"found":true`), []byte(`"found":false`), 1)
	if err := v.check(resp(w.corpA.FingerprintString()), bad, host, []string{host}, false); err == nil {
		t.Error("changed answer to a verified input accepted")
	}
	if err := v.check(resp(w.corpA.FingerprintString()), bad, host+"x", []string{host}, false); err == nil {
		t.Error("wrong answer accepted")
	}
	if err := v.check(resp(w.corpB.FingerprintString()), good, host, []string{host}, false); err == nil {
		t.Error("answer stamped with a corpus never served accepted")
	}
}

func TestWorldIsDeterministic(t *testing.T) {
	ctx := context.Background()
	a, err := buildWorld(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildWorld(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("seed 5 built two worlds: %s, %s", a.digest, b.digest)
	}
	for _, ts := range a.train {
		if ts.fp == "" || len(ts.ncs) == 0 {
			t.Errorf("%s set learned nothing", ts.method)
		}
	}
	if a.corpA.FingerprintString() == a.corpB.FingerprintString() {
		t.Error("corpora A and B are equal")
	}
	if len(a.lookups.names) == 0 || len(a.lookups.names) > len(a.zone) {
		t.Errorf("%d of %d zone names are looked up", len(a.lookups.names), len(a.zone))
	}
	var total, top int64
	for _, n := range a.hops {
		total += n
		top = max(top, n)
	}
	t.Logf("zone %d, looked up %d, hops %d, top %d", len(a.zone), len(a.lookups.names), total, top)
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires zero failed operations and every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and builds hoiho")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	hoiho := filepath.Join(dir, "hoiho")
	if out, err := exec.Command("go", "build", "-o", hoiho, "hoiho/cmd/hoiho").CombinedOutput(); err != nil {
		t.Fatalf("building hoiho: %v\n%s", err, out)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		declared[m.Name] = true
	}
	// Every workload, also one BENCHMARK.json leaves out.
	var names []string
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		promised := map[string]bool{}
		for _, name := range workloads[wl].layers {
			promised[name] = true
		}
		for _, trace := range []bool{false, true} {
			opt := options{workload: wl, seed: 3, seconds: 1, trace: trace, hoiho: hoiho, work: filepath.Join(dir, "run"), reps: 2}
			res, err := run(context.Background(), opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl, trace, res.Attempted, res.Failed)
			}
			for name := range res.Metrics {
				if !declared[name] && !promised[name] {
					t.Errorf("%s sets undeclared metric %s", wl, name)
				}
			}
			if trace {
				if _, err := report(res.Metrics, sp.PerLayer, workloads[wl].layers); err != nil {
					t.Errorf("%s traced: %v", wl, err)
				}
				for _, m := range sp.PerLayer {
					if _, ok := res.Metrics[m.Name]; ok && !promised[m.Name] {
						t.Errorf("%s measures %s but does not promise it", wl, m.Name)
					}
				}
				continue
			}
			for _, m := range sp.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", wl, m.Name, v)
				}
			}
		}
	}
}

// TestWrongAnswerFailsTheRun serves a corpus the verifier does not
// expect: every lookup must count as failed.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	ctx := context.Background()
	b := &bench{seed: 2, seq: make([]int, conns())}
	dir := t.TempDir()
	if _, err := setupLookup(ctx, b, dir, false); err != nil {
		t.Fatal(err)
	}
	defer b.cl.stop()
	b.ver = newVerifier(b.w.corpB) // nodes serve A
	b.lookupPhase(ctx, 200*time.Millisecond, false)
	if b.tally.attempted == 0 || b.tally.failed != b.tally.attempted {
		t.Errorf("attempted %d, failed %d: answers from an unexpected corpus passed", b.tally.attempted, b.tally.failed)
	}
}
