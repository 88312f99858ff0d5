package main

// Parent side of the child processes: start, wait for the listen line,
// read peak RSS, stop with SIGTERM (SIGKILL after a grace period).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running child.
type proc struct {
	name   string
	url    string // http://127.0.0.1:port
	spans  string // span file written at exit (traced runs)
	cmd    *exec.Cmd
	done   chan struct{}
	rssKB  int64
	exitEr error
}

// startChild re-executes this binary as a child and waits until it
// prints its listen address.
func startChild(dir, name string, trace bool, args ...string) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, spans: filepath.Join(dir, "spans-"+name+".jsonl"), done: make(chan struct{})}
	full := append([]string{"-child", "-name", name, "-spans", p.spans}, args...)
	if trace {
		full = append(full, "-trace")
	}
	p.cmd = exec.Command(exe, full...)
	p.cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark, even if the parent dies.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		first := ""
		if sc.Scan() {
			first = sc.Text()
		}
		line <- first
		io.Copy(io.Discard, out)
	}()
	go func() {
		p.exitEr = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case l := <-line:
		addr, ok := strings.CutPrefix(l, "listen ")
		if !ok {
			p.kill()
			return nil, fmt.Errorf("child %s did not start (first line %q)", name, l)
		}
		p.url = "http://" + addr
		return p, nil
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("child %s: no listen line within 30s", name)
	}
}

// stop asks the child to drain and waits for it; a child that does not
// exit within the grace period is killed and reported.
func (p *proc) stop() error {
	select {
	case <-p.done:
		return fmt.Errorf("child %s exited early: %v", p.name, p.exitEr)
	default:
	}
	p.rssKB = peakRSSKB(p.cmd.Process.Pid)
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.exitEr != nil {
			return fmt.Errorf("child %s: %w", p.name, p.exitEr)
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("child %s: did not exit within 15s of SIGTERM", p.name)
	}
}

// peakRSSKB reads a live process's peak RSS (VmHWM). The exit rusage
// would not do: Go starts children with vfork, so a child's ru_maxrss
// includes the parent's peak at the time of the fork.
func peakRSSKB(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// fleet is three nodes behind one router, all children.
type fleet struct {
	nodes  []*proc
	router *proc
	client *http.Client // admin calls: status, counters, trace toggles
}

const clusterNodes = 3

// startCluster boots the nodes on copies of corpus and the router with
// a journal, then waits until the router reports every member healthy.
func startCluster(dir string, corpus []byte, trace bool) (*fleet, error) {
	cl := &fleet{client: &http.Client{Timeout: 30 * time.Second}}
	var urls []string
	for i := 0; i < clusterNodes; i++ {
		name := "node" + strconv.Itoa(i)
		// Each node owns its corpus file: commit rewrites it.
		path := filepath.Join(dir, name+".hbc")
		if err := os.WriteFile(path, corpus, 0o644); err != nil {
			cl.stop()
			return nil, err
		}
		p, err := startChild(dir, name, trace, "-role", "node", "-corpus", path)
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.nodes = append(cl.nodes, p)
		urls = append(urls, p.url)
	}
	journal := filepath.Join(dir, "journal")
	p, err := startChild(dir, "router", trace, "-role", "router", "-nodes", strings.Join(urls, ","), "-journal", journal)
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.router = p
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.routerStatus()
		if err == nil && allHealthy(st) {
			return cl, nil
		}
		if time.Now().After(deadline) {
			cl.stop()
			return nil, fmt.Errorf("cluster not healthy within 30s (last error %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop stops every child and returns the first failure.
func (cl *fleet) stop() error {
	var first error
	if cl.router != nil {
		first = cl.router.stop()
	}
	for _, n := range cl.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	cl.client.CloseIdleConnections()
	return first
}

// peakNodeRSSMB is the largest node's peak RSS, read when it was
// stopped.
func (cl *fleet) peakNodeRSSMB() float64 {
	var kb int64
	for _, n := range cl.nodes {
		kb = max(kb, n.rssKB)
	}
	return float64(kb) / 1024
}

// setTrace switches span recording on or off in every child.
func (cl *fleet) setTrace(on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	for _, p := range append([]*proc{cl.router}, cl.nodes...) {
		resp, err := cl.client.Post(p.url+controlPath+"?on="+v, "text/plain", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("trace toggle on %s: %s", p.name, resp.Status)
		}
	}
	return nil
}

// spans reads every child's span file; valid after stop.
func (cl *fleet) spans() ([]span, error) {
	var all []span
	for _, p := range append([]*proc{cl.router}, cl.nodes...) {
		s, err := readSpans(p.spans)
		if err != nil {
			return nil, err
		}
		all = append(all, s...)
	}
	return all, nil
}

// routerCounters is the subset of /-/cluster the benchmark reads.
type routerCounters struct {
	Members []struct {
		Healthy bool `json:"healthy"`
	} `json:"members"`
	Requests uint64 `json:"requests"`
	Forwards uint64 `json:"forwards"`
	Retries  uint64 `json:"retries"`
	Hedges   uint64 `json:"hedges"`
	Shed     uint64 `json:"shed"`
	Aborted  uint64 `json:"aborted_rollouts"`
}

// add accumulates the counter growth from a to b.
func (c *routerCounters) add(a, b routerCounters) {
	c.Requests += b.Requests - a.Requests
	c.Forwards += b.Forwards - a.Forwards
	c.Retries += b.Retries - a.Retries
	c.Hedges += b.Hedges - a.Hedges
	c.Shed += b.Shed - a.Shed
	c.Aborted += b.Aborted - a.Aborted
}

func allHealthy(st routerCounters) bool {
	if len(st.Members) != clusterNodes {
		return false
	}
	for _, m := range st.Members {
		if !m.Healthy {
			return false
		}
	}
	return true
}

func (cl *fleet) routerStatus() (routerCounters, error) {
	var st routerCounters
	err := getJSON(context.Background(), cl.client, cl.router.url+"/-/cluster", &st)
	return st, err
}

// nodeCounters sums the /statusz counters the benchmark reads.
type nodeCounters struct {
	Fingerprint string `json:"fingerprint"`
	Shed        uint64 `json:"shed"`
	Deadline    uint64 `json:"deadline"`
}

// add accumulates the counter growth from a to b.
func (c *nodeCounters) add(a, b nodeCounters) {
	c.Shed += b.Shed - a.Shed
	c.Deadline += b.Deadline - a.Deadline
}

func (cl *fleet) nodeTotals() (nodeCounters, error) {
	var sum nodeCounters
	for _, n := range cl.nodes {
		var st nodeCounters
		if err := getJSON(context.Background(), cl.client, n.url+"/statusz", &st); err != nil {
			return sum, err
		}
		sum.Shed += st.Shed
		sum.Deadline += st.Deadline
	}
	return sum, nil
}

// nodeFingerprints reads every node's /-/status fingerprint.
func (cl *fleet) nodeFingerprints(ctx context.Context) ([]string, error) {
	fps := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		var st nodeCounters
		if err := getJSON(ctx, cl.client, n.url+"/-/status", &st); err != nil {
			return nil, err
		}
		fps[i] = st.Fingerprint
	}
	return fps, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
