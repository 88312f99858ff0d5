package main

// Set-up: every input derives from the seed through the repo's own
// generators, the cmd/itdkgen pipeline (topo → traceroute → itdk →
// bdrmapIT / RTAA). One world yields two training sets, the two
// corpora learned from them, the PTR zone, and how often each zone
// hostname answered a traceroute hop, which weights the lookups.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"

	"hoiho/internal/asn"
	"hoiho/internal/bdrmapit"
	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
	"hoiho/internal/rtaa"
	"hoiho/internal/topo"
)

// worldScale multiplies topo.DefaultConfig's AS counts. At 4 the zone
// holds about 11k names, each corpus about 100 conventions, and the
// whole set-up takes about 1.2s on 2 cores.
const worldScale = 4

// learn-eras learns eras smaller worlds of eraScale rather than one
// large one: how long learning takes depends on the training data, and
// summing several independent eras keeps one seed's world from setting
// the figure.
const (
	eras     = 8
	eraScale = 2
)

// buildEras builds the training sets of the seed's eras, each world from
// its own seeded RNG, and returns them with a digest of all of them.
func buildEras(ctx context.Context, seed int64) ([]trainingSet, string, error) {
	var sets []trainingSet
	var digests []string
	for k := 0; k < eras; k++ {
		w, err := buildWorldScaled(ctx, entityRNG(seed, "era", k).Int63(), eraScale)
		if err != nil {
			return nil, "", fmt.Errorf("era %d: %w", k, err)
		}
		sets = append(sets, w.train[:]...)
		digests = append(digests, w.digest)
	}
	return sets, inputDigest(digests), nil
}

// trainingSet is one ITDK-format training file and what in-process
// learning makes of it: the oracle for `hoiho -save` on that file.
type trainingSet struct {
	method string // "bdrmapit" or "rtaa"
	data   []byte // itdk.Snapshot.WriteTo output, the hoiho input
	items  []core.Item
	ncs    []*core.NC
	fp     string // fingerprint of the corpus hoiho -save writes
}

// world is the set-up product shared by every workload.
type world struct {
	zone []string // PTR zone hostnames in address order
	hops []int64  // hops[i]: times zone[i] answered a traceroute hop
	// lookups weights the zone by hops: what lookup-zipf and the
	// rollout reader draw from.
	lookups *hopWeights
	train   [2]trainingSet // [0] bdrmapIT-annotated, [1] RTAA-annotated
	// Corpus A is learned from the bdrmapIT set, B from the RTAA set of
	// the same world, so A↔B is a real relearn diff.
	hbcA, hbcB   []byte
	corpA, corpB *extract.Corpus
	digest       string
}

// buildWorld runs the generator pipeline for seed and learns both
// corpora. It is deterministic in seed.
func buildWorld(ctx context.Context, seed int64) (*world, error) {
	return buildWorldScaled(ctx, seed, worldScale)
}

func buildWorldScaled(ctx context.Context, seed int64, scale int) (*world, error) {
	cfg := topo.DefaultConfig(seed)
	cfg.Transit *= scale
	cfg.Access *= scale
	cfg.REN *= scale
	cfg.Stub *= scale
	cfg.IXPs *= scale
	in, err := topo.Build(cfg)
	if err != nil {
		return nil, err
	}
	traces := in.TraceAll()
	aliases := itdk.TruthAliases(in).Degrade(seed^0xa11a5, 0.8)
	ptr := func(a netip.Addr) string {
		if ifc := in.Interface(a); ifc != nil {
			return ifc.Hostname
		}
		return ""
	}
	graph := itdk.BuildGraph(traces, aliases, in.Table, ptr)
	ixps := make(map[asn.ASN]bool)
	for _, a := range in.ASes {
		if a.Class == topo.IXP {
			ixps[a.ASN] = true
		}
	}
	anns := [2]map[int]asn.ASN{
		(&bdrmapit.Annotator{Graph: graph, Rel: in.Rel, Orgs: in.Orgs, IXPs: ixps}).Annotate(),
		rtaa.Annotate(graph, in.Rel),
	}
	w := &world{}
	list := psl.Default()
	for i, method := range []string{"bdrmapit", "rtaa"} {
		var buf bytes.Buffer
		if _, err := itdk.FromGraph(graph, anns[i], "perfbench-"+method, method).WriteTo(&buf); err != nil {
			return nil, err
		}
		// Learn from the parsed file, exactly the items hoiho will see.
		snap, err := itdk.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		items := snap.TrainingItems()
		ncs, err := (&core.Learner{MinItems: 4}).LearnAll(ctx, list, items)
		if err != nil {
			return nil, fmt.Errorf("learning %s set: %w", method, err)
		}
		w.train[i] = trainingSet{
			method: method, data: buf.Bytes(), items: items, ncs: ncs,
			fp: extract.New(ncs, extract.WithPSL(list)).FingerprintString(),
		}
	}
	if w.hbcA, w.corpA, err = encodeCorpus(w.train[0].ncs, list); err != nil {
		return nil, err
	}
	if w.hbcB, w.corpB, err = encodeCorpus(w.train[1].ncs, list); err != nil {
		return nil, err
	}
	if w.corpA.FingerprintString() == w.corpB.FingerprintString() {
		return nil, fmt.Errorf("seed %d: corpora A and B are identical; no rollout diff", seed)
	}
	seen := make(map[string]int64)
	for _, p := range traces.Paths {
		for _, a := range p.Responding() {
			if ifc := in.Interface(a); ifc != nil && ifc.Hostname != "" {
				seen[ifc.Hostname]++
			}
		}
	}
	for _, ifc := range in.Interfaces() {
		if ifc.Hostname != "" {
			w.zone = append(w.zone, ifc.Hostname)
			w.hops = append(w.hops, seen[ifc.Hostname])
		}
	}
	w.lookups = newHopWeights(w.zone, w.hops)
	if len(w.lookups.names) == 0 {
		return nil, fmt.Errorf("seed %d: no zone hostname answered a traceroute hop", seed)
	}
	h := sha256.New()
	for i, z := range w.zone {
		fmt.Fprintf(h, "%s %d\n", z, w.hops[i])
	}
	h.Write(w.train[0].data)
	h.Write(w.train[1].data)
	h.Write(w.hbcA)
	h.Write(w.hbcB)
	w.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return w, nil
}

// encodeCorpus saves ncs as HBC and loads the bytes back as the oracle
// corpus, so the oracle is exactly what a node serves from that file.
func encodeCorpus(ncs []*core.NC, list *psl.List) ([]byte, *extract.Corpus, error) {
	var buf bytes.Buffer
	if err := extract.New(ncs, extract.WithPSL(list)).SaveBinary(&buf); err != nil {
		return nil, nil, err
	}
	c, err := extract.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), c, nil
}
