package itdk

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"hoiho/internal/asn"
	"hoiho/internal/core"
)

// NodeRecord is one router in a published snapshot: its interfaces, PTR
// records, and the AS annotation a router-ownership method inferred.
type NodeRecord struct {
	ID        int
	Addrs     []netip.Addr
	Hostnames []string // aligned with Addrs; "" when unnamed
	ASN       asn.ASN  // training ASN; asn.None when uninferred
}

// Snapshot is an ITDK-style release: alias-resolved nodes annotated with
// inferred owners — the training data for Hoiho.
type Snapshot struct {
	// Name identifies the snapshot (e.g. "itdk-2020-01").
	Name string
	// Method names the annotation source ("rtaa", "bdrmapit",
	// "peeringdb").
	Method string
	Nodes  []NodeRecord
}

// FromGraph publishes a snapshot from an observed graph and per-node AS
// annotations.
func FromGraph(g *Graph, annotations map[int]asn.ASN, name, method string) *Snapshot {
	s := &Snapshot{Name: name, Method: method}
	for _, n := range g.Nodes {
		rec := NodeRecord{ID: n.ID, ASN: annotations[n.ID]}
		for _, a := range n.Ifaces {
			rec.Addrs = append(rec.Addrs, a)
			rec.Hostnames = append(rec.Hostnames, g.Hostnames[a])
		}
		s.Nodes = append(s.Nodes, rec)
	}
	return s
}

// TrainingItems extracts the (hostname, address, training ASN) items
// Hoiho learns from: every named interface on an annotated node.
func (s *Snapshot) TrainingItems() []core.Item {
	var items []core.Item
	for _, n := range s.Nodes {
		if n.ASN == asn.None {
			continue
		}
		for i, h := range n.Hostnames {
			if h == "" {
				continue
			}
			items = append(items, core.Item{Hostname: h, Addr: n.Addrs[i], ASN: n.ASN})
		}
	}
	return items
}

// NumInterfaces returns the total interface count.
func (s *Snapshot) NumInterfaces() int {
	n := 0
	for _, rec := range s.Nodes {
		n += len(rec.Addrs)
	}
	return n
}

// WriteTo serializes the snapshot in an ITDK-like text format:
//
//	# itdk <name> method=<method>
//	node N1: 10.0.0.1 10.0.0.5
//	node.AS N1 701
//	ptr 10.0.0.1 xe0.nyc.example.net
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	c, err := fmt.Fprintf(w, "# itdk %s method=%s\n", s.Name, s.Method)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, rec := range s.Nodes {
		addrs := make([]string, len(rec.Addrs))
		for i, a := range rec.Addrs {
			addrs[i] = a.String()
		}
		c, err = fmt.Fprintf(w, "node N%d: %s\n", rec.ID, strings.Join(addrs, " "))
		n += int64(c)
		if err != nil {
			return n, err
		}
		if rec.ASN != asn.None {
			c, err = fmt.Fprintf(w, "node.AS N%d %d\n", rec.ID, rec.ASN)
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
		for i, h := range rec.Hostnames {
			if h == "" {
				continue
			}
			c, err = fmt.Fprintf(w, "ptr %s %s\n", rec.Addrs[i], h)
			n += int64(c)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Parse reads the WriteTo format.
func Parse(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{}
	byID := make(map[int]*NodeRecord)
	ptrs := make(map[netip.Addr]string)
	var order []int
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "# itdk "):
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				s.Name = fields[2]
			}
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, "method="); ok {
					s.Method = v
				}
			}
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "node.AS "):
			idField, rest := nextField(line[len("node.AS "):])
			asField, rest := nextField(rest)
			if rest != "" {
				return nil, fmt.Errorf("itdk: line %d: want node.AS N<id> <asn>", lineno)
			}
			id, err := nodeID(idField)
			if err != nil {
				return nil, fmt.Errorf("itdk: line %d: %w", lineno, err)
			}
			a, err := strconv.ParseUint(asField, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("itdk: line %d: ASN: %w", lineno, err)
			}
			rec, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("itdk: line %d: node.AS for unknown node N%d", lineno, id)
			}
			rec.ASN = asn.ASN(a)
		case strings.HasPrefix(line, "node "):
			head, rest, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("itdk: line %d: missing ':'", lineno)
			}
			idField, extra := nextField(head[len("node "):])
			if extra != "" {
				return nil, fmt.Errorf("itdk: line %d: want node N<id>: <addrs>", lineno)
			}
			id, err := nodeID(idField)
			if err != nil {
				return nil, fmt.Errorf("itdk: line %d: %w", lineno, err)
			}
			rec := &NodeRecord{ID: id}
			for f, more := nextField(rest); f != ""; f, more = nextField(more) {
				addr, err := netip.ParseAddr(f)
				if err != nil {
					return nil, fmt.Errorf("itdk: line %d: %w", lineno, err)
				}
				rec.Addrs = append(rec.Addrs, addr)
			}
			byID[id] = rec
			order = append(order, id)
		case strings.HasPrefix(line, "ptr "):
			addrField, rest := nextField(line[len("ptr "):])
			host, rest := nextField(rest)
			if host == "" || rest != "" {
				return nil, fmt.Errorf("itdk: line %d: want ptr addr host", lineno)
			}
			addr, err := netip.ParseAddr(addrField)
			if err != nil {
				return nil, fmt.Errorf("itdk: line %d: %w", lineno, err)
			}
			ptrs[addr] = host
		default:
			return nil, fmt.Errorf("itdk: line %d: unrecognized %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Nodes come out in ID order. A repeated ID lists its last record at
	// each occurrence, so sorting the IDs orders the records stably.
	sort.Ints(order)
	s.Nodes = make([]NodeRecord, 0, len(order))
	for _, id := range order {
		rec := byID[id]
		rec.Hostnames = make([]string, len(rec.Addrs))
		for i, a := range rec.Addrs {
			rec.Hostnames[i] = ptrs[a]
		}
		s.Nodes = append(s.Nodes, *rec)
	}
	return s, nil
}

// nextField returns the first whitespace-separated field of s and the
// text after the whitespace that ends it: strings.Fields one field at a
// time, without the slice.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimLeftFunc(s[i:], unicode.IsSpace)
}

// nodeID parses an "N<id>" node reference.
func nodeID(f string) (int, error) {
	digits, ok := strings.CutPrefix(f, "N")
	if !ok {
		return 0, fmt.Errorf("node id %q: missing N", f)
	}
	id, err := strconv.Atoi(digits)
	if err != nil {
		return 0, fmt.Errorf("node id: %w", err)
	}
	return id, nil
}
