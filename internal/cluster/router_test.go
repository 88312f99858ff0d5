package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/faultinject"
)

// extractReply mirrors the node's extraction response body.
type extractReply struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn"`
}

// doGet runs one request through the router handler and decodes it.
func doGet(t testing.TB, rt *Router, target string) (*httptest.ResponseRecorder, extractReply) {
	t.Helper()
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	var rep extractReply
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("bad extraction JSON %q: %v", w.Body.String(), err)
		}
	}
	return w, rep
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err != ErrNoMembers {
		t.Errorf("NewRouter without nodes = %v, want ErrNoMembers", err)
	}
	if _, err := NewRouter(Config{Nodes: []string{"ftp://x"}}); err == nil {
		t.Error("NewRouter must reject a non-http node URL")
	}
	if _, err := NewRouter(Config{Nodes: []string{"http://"}}); err == nil {
		t.Error("NewRouter must reject a hostless node URL")
	}
}

// TestRouterForward: a request reaches its shard's primary owner, the
// response carries the node's corpus stamp plus the router's identity
// header, and no degraded marker appears on a healthy cluster.
func TestRouterForward(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	fpFirst := fingerprintOf(t, "first")

	host := "as7-pod9.cluster3.net"
	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("GET /extract = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 7 {
		t.Errorf("extraction = %+v, want ASN 7 from the first-variant corpus", rep)
	}
	if got := w.Header().Get("X-Hoiho-Corpus"); got != fpFirst {
		t.Errorf("X-Hoiho-Corpus = %q, want %q", got, fpFirst)
	}
	if w.Header().Get("X-Hoiho-Degraded") != "" {
		t.Error("healthy cluster must not mark responses degraded")
	}
	node := w.Header().Get("X-Hoiho-Node")
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))
	if node != owners[0] {
		t.Errorf("served by %s, want primary owner %s", node, owners[0])
	}
}

func TestRouterMissingHost(t *testing.T) {
	nodes := newTestNodes(t, 1)
	rt := newTestRouter(t, nodes, nil)
	if w, _ := doGet(t, rt, "/extract"); w.Code != 400 {
		t.Errorf("GET /extract without host = %d, want 400", w.Code)
	}
}

// TestRouterBatch: a batch body forwards whole to one node and comes
// back in input order.
func TestRouterBatch(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	body := "as1-pod2.cluster0.net\nas3-pod4.cluster1.net\n"
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/extract", strings.NewReader(body)))
	if w.Code != 200 {
		t.Fatalf("POST /extract = %d: %s", w.Code, w.Body.String())
	}
	var reps []extractReply
	if err := json.Unmarshal(w.Body.Bytes(), &reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].ASN != 1 || reps[1].ASN != 3 {
		t.Errorf("batch = %+v, want ASNs 1 and 3", reps)
	}
	if w.Header().Get("X-Hoiho-Node") == "" {
		t.Error("batch response must name its serving node")
	}
	w2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w2, httptest.NewRequest("POST", "/extract", strings.NewReader("\n\n")))
	if w2.Code != 400 {
		t.Errorf("empty batch = %d, want 400", w2.Code)
	}
}

// TestRouterBatchRelayUnchunked: over real HTTP, a batch reply too big
// for the server's pre-chunking buffer reaches the client with an exact
// Content-Length, not chunked, byte for byte as the node answers the
// same body.
func TestRouterBatchRelayUnchunked(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "as%d-pod%d.cluster%d.net\n", i, i+1, i%nSuffixes)
	}
	post := func(base string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Post(base+"/extract", "text/plain", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("POST %s/extract = %d, %v: %s", base, resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("POST %s/extract: Content-Length %d, Transfer-Encoding %v for a %d-byte body; want exact length, unchunked",
				base, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		return resp, body
	}
	resp, routed := post(front.URL)
	if len(routed) <= 4096 {
		t.Fatalf("batch reply is %d bytes, too small to have been chunked", len(routed))
	}
	var node string
	for _, n := range nodes {
		if n.url() == resp.Header.Get("X-Hoiho-Node") {
			node = n.url()
		}
	}
	if node == "" {
		t.Fatalf("X-Hoiho-Node %q names no test node", resp.Header.Get("X-Hoiho-Node"))
	}
	if _, direct := post(node); string(direct) != string(routed) {
		t.Errorf("routed body differs from the node's own answer:\n routed %q\n direct %q", routed, direct)
	}
}

// TestRouterFailover: when a shard's primary cannot be reached, the
// request lands on the other replica — same corpus, no error, no
// degraded marker (a replica is a full owner).
func TestRouterFailover(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	host := "as5-pod1.cluster2.net"
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owners[0], Kind: faultinject.KindError, Prob: 1},
	}})()

	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("failover GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 5 {
		t.Errorf("failover extraction = %+v", rep)
	}
	if got := w.Header().Get("X-Hoiho-Node"); got != owners[1] {
		t.Errorf("served by %s, want replica %s", got, owners[1])
	}
	if w.Header().Get("X-Hoiho-Degraded") != "" {
		t.Error("a replica-served response is not degraded")
	}
	if rt.stats.retries.Load() == 0 {
		t.Error("failover must account a retry")
	}
}

// TestRouterDegraded: with R=1 and the sole owner down, the request is
// answered by a non-owner and says so.
func TestRouterDegraded(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, func(c *Config) { c.Replicas = 1; c.MaxAttempts = 3 })
	host := "as8-pod2.cluster4.net"
	owner := rt.view.Load().ring.Owner(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owner, Kind: faultinject.KindError, Prob: 1},
	}})()

	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("degraded GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 8 {
		t.Errorf("degraded extraction = %+v", rep)
	}
	if w.Header().Get("X-Hoiho-Degraded") == "" {
		t.Error("an off-replica answer must carry X-Hoiho-Degraded")
	}
	if got := w.Header().Get("X-Hoiho-Node"); got == owner {
		t.Errorf("served by the dead owner %s", got)
	}
}

// TestRouterShed: with every node unreachable the request sheds as 503
// with a jittered Retry-After, matching the serve taxonomy.
func TestRouterShed(t *testing.T) {
	nodes := newTestNodes(t, 2)
	rt := newTestRouter(t, nodes, nil)
	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Kind: faultinject.KindError, Prob: 1},
	}})()
	w, _ := doGet(t, rt, "/extract?host=as1-pod1.cluster0.net")
	if w.Code != 503 {
		t.Fatalf("all-down GET = %d, want 503", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	if !strings.Contains(w.Body.String(), "unavailable") {
		t.Errorf("shed body = %q", w.Body.String())
	}
}

// TestRouterHedge: a stalled primary is hedged to the next replica
// after the latency budget instead of waiting out the stall.
func TestRouterHedge(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, func(c *Config) { c.HedgeAfter = 10 * time.Millisecond })
	host := "as2-pod6.cluster5.net"
	owners := rt.view.Load().ring.Owners(rt.shardKey(host))

	defer faultinject.Activate(&faultinject.Plan{Rules: []faultinject.Rule{
		{Stage: faultinject.StageClusterForward, Key: owners[0], Kind: faultinject.KindStall,
			Prob: 1, Stall: 2 * time.Second},
	}})()

	start := time.Now()
	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 {
		t.Fatalf("hedged GET = %d: %s", w.Code, w.Body.String())
	}
	if !rep.Found || rep.ASN != 2 {
		t.Errorf("hedged extraction = %+v", rep)
	}
	if got := w.Header().Get("X-Hoiho-Node"); got != owners[1] {
		t.Errorf("served by %s, want hedge target %s", got, owners[1])
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged request took %v; it waited out the stall", elapsed)
	}
	if rt.stats.hedges.Load() == 0 {
		t.Error("hedge must be accounted")
	}
	// The stalled primary was cancelled by the hedge winner, not failed:
	// it must stay in rotation.
	if !rt.view.Load().byName[owners[0]].healthy.Load() {
		t.Error("the primary cancelled by the hedge winner was demoted")
	}
	if n := rt.StatusNow().Unhealthy; n != 0 {
		t.Errorf("unhealthy_marks = %d, want 0", n)
	}
}

// TestRouterStaleConnRetry: a node that closes its kept-alive
// connections between two forwards (a restart or drain, as the router
// sees one) costs a fresh dial, not a failed request or a demotion.
func TestRouterStaleConnRetry(t *testing.T) {
	nodes := newTestNodes(t, 3)
	// Probes after the first are an hour out, so only the forward meets
	// the closed connections.
	rt := newTestRouter(t, nodes, func(c *Config) { c.ProbeInterval = time.Hour })
	host := "as3-pod1.cluster2.net"
	if w, _ := doGet(t, rt, "/extract?host="+host); w.Code != 200 {
		t.Fatalf("first GET = %d: %s", w.Code, w.Body.String())
	}
	for _, n := range nodes {
		n.ts.CloseClientConnections()
	}
	w, rep := doGet(t, rt, "/extract?host="+host)
	if w.Code != 200 || !rep.Found || rep.ASN != 3 {
		t.Fatalf("GET after the node closed its connections = %d %+v: %s", w.Code, rep, w.Body.String())
	}
	st := rt.StatusNow()
	if st.Unhealthy != 0 || st.Retries != 0 {
		t.Errorf("stale connection cost unhealthy_marks=%d retries=%d, want 0/0", st.Unhealthy, st.Retries)
	}
}

// TestRoundTripRejectsBadTarget: a path or query carrying CR, LF, a
// space or another control byte fails before anything is written, so
// no request can be smuggled onto a node connection.
func TestRoundTripRejectsBadTarget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n, _ := io.Copy(io.Discard, c)
			received.Add(n)
			c.Close()
		}
	}()
	m, err := parseMember("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, tc := range []struct{ path, query string }{
		{"/extract", "host=a\r\nX-Evil: 1"},
		{"/extract", "host=a\nb"},
		{"/extract", "host=a b"},
		{"/extract", "host=a\x00"},
		{"/extract\r\nHost: evil", ""},
		{"/-/rollout/prepare", "epoch=1\x7f"},
	} {
		if _, err := m.roundTrip(ctx, "GET", tc.path, tc.query, nil, 4096); !errors.Is(err, errBadTarget) {
			t.Errorf("roundTrip(%q, %q) = %v, want errBadTarget", tc.path, tc.query, err)
		}
	}
	m.closeConns()
	ln.Close()
	<-done
	if n := received.Load(); n != 0 {
		t.Errorf("%d bytes reached the node", n)
	}
}

// TestLeaveClosesConns: Leave closes the departed member's pooled
// connections, and a connection an in-flight request returns after the
// leave is closed rather than pooled.
func TestLeaveClosesConns(t *testing.T) {
	stay := newTestNodes(t, 1)[0]
	// The departing node counts its open connections.
	var open atomic.Int64
	gone := &testNode{srv: stay.srv, ts: httptest.NewUnstartedServer(stay.srv.Handler())}
	gone.ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	gone.ts.Start()
	t.Cleanup(gone.ts.Close)
	rt := newTestRouter(t, []*testNode{stay, gone}, nil)
	m := rt.view.Load().byName[gone.url()]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Two pooled connections (beside the probe loop's) plus one held by
	// an in-flight request that returns only after the leave.
	c1, c2 := mustDial(t, ctx, m), mustDial(t, ctx, m)
	m.putConn(c1)
	m.putConn(c2)
	inflight := mustDial(t, ctx, m)
	waitOpen(t, &open, func(n int64) bool { return n >= 3 }, "at least 3")

	if err := rt.Leave(gone.url()); err != nil {
		t.Fatal(err)
	}
	waitOpen(t, &open, func(n int64) bool { return n == 1 }, "only the in-flight one")
	if _, _, err := m.exchange(ctx, inflight, "GET", "/readyz", "", nil, 4096); err != nil {
		t.Fatalf("in-flight request after leave: %v", err)
	}
	waitOpen(t, &open, func(n int64) bool { return n == 0 }, "none")
	if got := m.getConn(); got != nil {
		t.Error("a connection returned after leave was pooled")
	}
}

func mustDial(t *testing.T, ctx context.Context, m *member) *nodeConn {
	t.Helper()
	c, err := m.dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitOpen waits until the node's open-connection count satisfies ok.
func waitOpen(t *testing.T, open *atomic.Int64, ok func(int64) bool, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(open.Load()) {
		if time.Now().After(deadline) {
			t.Fatalf("node has %d open connections, want %s", open.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFirstHostLine: the batch shard key is the first non-blank line,
// whatever the line endings and leading blank lines.
func TestFirstHostLine(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"a.example.net\nb.example.net\n", "a.example.net"},
		{"\n\n  \nb.example.net\n", "b.example.net"},
		{"\r\n\r\nc.example.net\r\nd.example.net\r\n", "c.example.net"},
		{"  e.example.net\t", "e.example.net"},
		{"f.example.net", "f.example.net"},
		{" \t\r\n \n\t", ""},
		{"", ""},
	} {
		if got := firstHostLine([]byte(tc.body)); got != tc.want {
			t.Errorf("firstHostLine(%q) = %q, want %q", tc.body, got, tc.want)
		}
	}
}

// TestRouterReadyz: not ready before any probe succeeds, ready after.
func TestRouterReadyz(t *testing.T) {
	nodes := newTestNodes(t, 2)
	urls := []string{nodes[0].url(), nodes[1].url()}
	rt, err := NewRouter(Config{Nodes: urls, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != 503 {
		t.Errorf("readyz before probes = %d, want 503", w.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.Start(ctx)
	defer func() {
		cancel()
		rt.Wait()
	}()
	waitHealthy(t, rt, 2)
	w2 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w2, httptest.NewRequest("GET", "/readyz", nil))
	if w2.Code != 200 {
		t.Errorf("readyz after probes = %d, want 200", w2.Code)
	}
	w3 := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w3, httptest.NewRequest("GET", "/healthz", nil))
	if w3.Code != 200 {
		t.Errorf("healthz = %d, want 200", w3.Code)
	}
}

// TestRouterJoinLeave: a joined node enters the ring only after
// warming; a left node exits it; the edges (duplicate join, unknown or
// last-member leave) are rejected.
func TestRouterJoinLeave(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, []*testNode{nodes[0], nodes[1]}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := rt.Join(ctx, nodes[2].url()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := len(rt.view.Load().members); got != 3 {
		t.Fatalf("members after join = %d, want 3", got)
	}
	if err := rt.Join(ctx, nodes[2].url()); err == nil {
		t.Error("duplicate join must fail")
	}
	if _, rep := doGet(t, rt, "/extract?host=as4-pod4.cluster6.net"); !rep.Found {
		t.Error("extraction must keep working across a join")
	}

	if err := rt.Leave(nodes[0].url()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := len(rt.view.Load().members); got != 2 {
		t.Fatalf("members after leave = %d, want 2", got)
	}
	for _, m := range rt.view.Load().members {
		if m.name == nodes[0].url() {
			t.Error("left node still in the view")
		}
	}
	if err := rt.Leave("http://never-was-a-member"); err == nil {
		t.Error("leaving an unknown node must fail")
	}
	if err := rt.Leave(nodes[1].url()); err != nil {
		t.Fatalf("leave second: %v", err)
	}
	if err := rt.Leave(nodes[2].url()); err == nil {
		t.Error("leaving the last member must fail")
	}
}

// TestClusterStatus: /-/cluster reports membership, ring shape, and the
// counters.
func TestClusterStatus(t *testing.T) {
	nodes := newTestNodes(t, 3)
	rt := newTestRouter(t, nodes, nil)
	doGet(t, rt, "/extract?host=as1-pod1.cluster0.net")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/-/cluster", nil))
	if w.Code != 200 {
		t.Fatalf("GET /-/cluster = %d", w.Code)
	}
	var st ClusterStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 || st.Replication != DefaultReplicas {
		t.Errorf("status = %+v", st)
	}
	for _, m := range st.Members {
		if !m.Healthy {
			t.Errorf("member %s unhealthy in status", m.Node)
		}
	}
	if st.Requests == 0 || st.Forwards == 0 {
		t.Errorf("counters not accounted: %+v", st)
	}
}

// TestRetryAfterJitter: the router's shed hint spreads across
// [base, 2*base] so synchronized clients do not return as a thundering
// herd.
func TestRetryAfterJitter(t *testing.T) {
	rt, err := NewRouter(Config{Nodes: []string{"http://127.0.0.1:1"}, RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for i := 0; i < 64; i++ {
		w := httptest.NewRecorder()
		rt.shed(w, "shed")
		v := w.Header().Get("Retry-After")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer", v)
		}
		if n < 2 || n > 4 {
			t.Fatalf("Retry-After %d outside [2, 4]", n)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Errorf("64 hints collapsed to %d distinct value(s); jitter is not spreading", len(distinct))
	}
}

// TestShardKey: PSL-known suffixes shard on their registered domain so
// every host of one operator's domain lands on the same replica set.
func TestShardKey(t *testing.T) {
	nodes := newTestNodes(t, 1)
	rt := newTestRouter(t, nodes, nil)
	a := rt.shardKey("ae1.cr2.example.net")
	b := rt.shardKey("xe0.br1.example.net")
	if a != b {
		t.Errorf("shard keys %q and %q differ for one registered domain", a, b)
	}
	if got := rt.shardKey("host.weird-unknown-tld-zzz"); got != "host.weird-unknown-tld-zzz" {
		t.Errorf("unknown suffix key = %q, want the whole hostname", got)
	}
	_ = fmt.Sprint(a)
}
