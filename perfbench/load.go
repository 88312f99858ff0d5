package main

// Input generation and answer checking. Every entity that draws inputs
// (a connection, a batch, the open-loop reader) owns one RNG seeded
// from the run seed and the entity's identity, so an entity's inputs do
// not depend on how many requests other entities managed to send.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hoiho/internal/extract"
)

// entityRNG returns the RNG owned by one input-generating entity.
func entityRNG(seed int64, entity string, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, entity, idx)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// hopWeights is the lookup popularity of the zone: each hostname
// weighted by how often its interface answered as a hop in the world's
// own traceroutes. That is the stream a tool like bdrmapIT sends when it
// looks up the hostname of every hop it sees, one at a time; zone names
// that never answered a hop are never looked up.
type hopWeights struct {
	names []string
	cum   []int64 // cum[i]: total weight of names[:i+1]
}

// newHopWeights keeps the zone names with a positive hop count, in zone
// order, with their cumulative counts.
func newHopWeights(zone []string, hops []int64) *hopWeights {
	w := &hopWeights{}
	var total int64
	for i, n := range hops {
		if n > 0 {
			total += n
			w.names = append(w.names, zone[i])
			w.cum = append(w.cum, total)
		}
	}
	return w
}

// hostStream draws hostnames with probability proportional to their
// hop weight, from one entity's RNG.
type hostStream struct {
	w *hopWeights
	r *rand.Rand
}

func newHostStream(seed int64, w *hopWeights, entity string, idx int) *hostStream {
	return &hostStream{w: w, r: entityRNG(seed, entity, idx)}
}

func (s *hostStream) next() string {
	x := s.r.Int63n(s.w.cum[len(s.w.cum)-1])
	return s.w.names[sort.Search(len(s.w.cum), func(i int) bool { return s.w.cum[i] > x })]
}

// batchSize is the number of hostnames in one POST /extract body.
const batchSize = 1000

// batchPool is how many distinct batches a run cycles through; batch b
// sends pool entry b mod batchPool.
const batchPool = 64

// makeBatch draws batch b's hostnames uniformly from the zone.
func makeBatch(seed int64, zone []string, b int) []string {
	r := entityRNG(seed, "batch", b)
	out := make([]string, batchSize)
	for i := range out {
		out[i] = zone[r.Intn(len(zone))]
	}
	return out
}

// inputDigest hashes the first n draws of each stream and every batch
// of the pool: equal digests mean two runs measured identical inputs.
func inputDigest(parts ...[]string) string {
	h := sha256.New()
	for _, p := range parts {
		for _, s := range p {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// draws returns the first n hostnames of a stream.
func draws(s *hostStream, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// answer is the JSON shape of one served extraction.
type answer struct {
	Hostname string `json:"hostname"`
	Found    bool   `json:"found"`
	ASN      uint32 `json:"asn,omitempty"`
	Suffix   string `json:"suffix,omitempty"`
	Class    string `json:"class,omitempty"`
	Digits   string `json:"digits,omitempty"`
}

// expect is the in-process answer of corpus c for host.
func expect(c *extract.Corpus, host string) answer {
	m, ok := c.Extract(context.Background(), host)
	if !ok {
		return answer{Hostname: host}
	}
	return answer{Hostname: host, Found: true, ASN: uint32(m.ASN), Suffix: m.Suffix, Class: m.Class.String(), Digits: m.Digits}
}

// verifier checks served answers against in-process Corpus.Extract on
// the corpus whose fingerprint the response carries. A body that was
// verified once is remembered by checksum, so repeats of the same input
// cost the load generator a CRC instead of a JSON decode.
type verifier struct {
	corpora map[string]*extract.Corpus // fingerprint → oracle
	mu      sync.Mutex
	seen    map[string]uint32 // fingerprint|input key → body CRC
}

func newVerifier(cs ...*extract.Corpus) *verifier {
	v := &verifier{corpora: make(map[string]*extract.Corpus), seen: make(map[string]uint32)}
	for _, c := range cs {
		v.corpora[c.FingerprintString()] = c
	}
	return v
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// check verifies one response: status 200, a fingerprint the verifier
// knows, and a body equal to the oracle's answers for hosts. key names
// the input (a hostname, or a batch id) for the repeat cache.
func (v *verifier) check(resp *http.Response, body []byte, key string, hosts []string, batch bool) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fp := resp.Header.Get("X-Hoiho-Corpus")
	c := v.corpora[fp]
	if c == nil {
		return fmt.Errorf("response carries fingerprint %q, which was never rolled out", fp)
	}
	k := fp + "|" + key
	sum := crc32.Checksum(body, crcTable)
	v.mu.Lock()
	prev, ok := v.seen[k]
	v.mu.Unlock()
	if ok {
		if prev != sum {
			return fmt.Errorf("%s: body differs from an earlier verified answer", key)
		}
		return nil
	}
	var got []answer
	if batch {
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	} else {
		var one answer
		if err := json.Unmarshal(body, &one); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		got = []answer{one}
	}
	if len(got) != len(hosts) {
		return fmt.Errorf("%s: %d answers for %d hosts", key, len(got), len(hosts))
	}
	for i, h := range hosts {
		if want := expect(c, h); got[i] != want {
			return fmt.Errorf("%s: host %s: got %+v, want %+v", key, h, got[i], want)
		}
	}
	v.mu.Lock()
	v.seen[k] = sum
	v.mu.Unlock()
	return nil
}

// connClient is an HTTP client pinned to a single connection per host:
// the benchmark's load is the number of such clients.
func connClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}
