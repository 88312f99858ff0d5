// Command perfbench is hoiho's end-to-end benchmark. It derives a
// synthetic world from a seed, boots a 3-node cluster (R=2) behind a
// router as child processes on loopback, runs one named workload
// against it (or against the hoiho learning CLI), checks every answer,
// and prints its metrics as one JSON line.
//
//	perfbench -workload lookup-zipf -seed 1 -seconds 10 -trace 0
//
// Workloads: lookup-zipf, batch-annotate, rollout-under-read,
// learn-eras (BENCHMARK.json runs all but rollout-under-read). With
// -trace 0 the line holds the end-to-end metrics of BENCHMARK.json; with
// -trace 1 the per-layer metrics, from a run that alternates untraced
// and traced slices (the difference is the tracing overhead). The
// process exits 1 on any wrong answer, and a traced run also when a
// per-layer metric of its workload was not measured.
//
// perfbench/run.sh builds the benchmark and the hoiho CLI into
// .bench_build and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; units come from the spec.
type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	hoiho    string
	work     string
	reps     int // set-up repetitions; setup_s is their median
}

// setupReps is how often an untraced run sets up.
const setupReps = 3

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	hoiho := fs.String("hoiho", filepath.Join(".bench_build", "bin", "hoiho"), "hoiho CLI binary (learn-eras)")
	work := fs.String("workdir", filepath.Join(".bench_build", "run"), "scratch directory for corpora, journals and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, hoiho: *hoiho, work: *work, reps: setupReps}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want, required := sp.EndToEnd, names(sp.EndToEnd)
	if opt.trace {
		want, required = sp.PerLayer, workloads[opt.workload].layers
	}
	if res.Metrics, err = report(res.Metrics, want, required); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", opt.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report selects the metrics want from measured, with the spec's
// units. Every name in required must have been measured as a finite
// number; the rest of want, layers the workload does not run, is
// reported as 0.
func report(measured metrics, want []specMetric, required []string) (metrics, error) {
	for _, name := range required {
		v, ok := measured[name]
		if !ok {
			return nil, fmt.Errorf("did not measure %s", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s = %v", name, v.Value)
		}
	}
	out := metrics{}
	for _, m := range want {
		out[m.Name] = metric{Value: measured[m.Name].Value, Unit: m.Unit}
	}
	return out, nil
}

// run sets up, measures and tears down one workload.
func run(ctx context.Context, opt options, out io.Writer) (*result, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	dir := filepath.Join(opt.work, opt.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{seed: opt.seed, hoiho: opt.hoiho, seq: make([]int, conns())}
	defer func() {
		if b.cl != nil {
			b.cl.stop()
		}
	}()
	reps := opt.reps
	if opt.trace {
		reps = 1 // the traced run reports no set-up time
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		repDir := filepath.Join(dir, "setup"+strconv.Itoa(i))
		if err := os.MkdirAll(repDir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		digest, err := wl.setup(ctx, b, repDir, opt.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(out, "setup %d: %.3fs inputs_digest=%s\n", i, setups[i], digest)
		if i > 0 && digest != b.digest {
			return nil, fmt.Errorf("set-up is not deterministic: digest %s then %s", b.digest, digest)
		}
		b.digest = digest
		if i < reps-1 && b.cl != nil {
			if err := b.cl.stop(); err != nil {
				return nil, err
			}
			b.cl = nil
		}
	}
	m := metrics{}
	m.set("setup_s", median(setups))
	dur := time.Duration(opt.seconds * float64(time.Second))
	if err := wl.measure(ctx, b, dur, opt.trace, m, out); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &result{Correct: b.tally.failed == 0, Attempted: b.tally.attempted, Failed: b.tally.failed, Metrics: m}
	fmt.Fprintf(out, "workload %s seed %d: attempted %d, succeeded %d, failed %d\n",
		opt.workload, opt.seed, res.Attempted, res.Attempted-res.Failed, res.Failed)
	if b.tally.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", b.tally.firstErr)
	}
	return res, nil
}
