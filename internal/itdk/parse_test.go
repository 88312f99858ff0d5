package itdk

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"hoiho/internal/asn"
)

// TestParseLines pins which node and node.AS lines Parse accepts and
// what it reads from them. Each case follows a well-formed "node N5"
// record, so a rejection is the case line's own; errors name line 2.
func TestParseLines(t *testing.T) {
	const head = "node N5: 10.0.0.1\n"
	cases := []struct {
		line string
		ok   bool
		id   int
		asn  asn.ASN
	}{
		{"node.AS N5 7", true, 5, 7},
		{"node.AS N5 4294967295", true, 5, 4294967295},
		{"node.AS N5  7", true, 5, 7},
		{"node.AS N5\t7", true, 5, 7},
		{"node.AS  N5 7", true, 5, 7},
		{"  node.AS N5 7  ", true, 5, 7},
		{"node.AS N5 07", true, 5, 7},
		{"node.AS 5 7", false, 0, 0},                     // missing N
		{"node.AS n5 7", false, 0, 0},                    // lower-case n
		{"node.AS Nx 7", false, 0, 0},                    // non-numeric id
		{"node.AS N5x 7", false, 0, 0},                   // id runs into text
		{"node.AS N99999999999999999999 7", false, 0, 0}, // id overflows int
		{"node.AS N5 -7", false, 0, 0},                   // negative ASN
		{"node.AS N5 +7", false, 0, 0},                   // signed ASN
		{"node.AS N5 4294967296", false, 0, 0},           // ASN above 2^32-1
		{"node.AS N5 99999999999", false, 0, 0},          // ASN far above
		{"node.AS N5 x", false, 0, 0},                    // non-numeric ASN
		{"node.AS N5", false, 0, 0},                      // missing ASN
		{"node.AS N5 ", false, 0, 0},                     // missing ASN, trailing space
		{"node.AS N6 7", false, 0, 0},                    // unknown node
		{"node N6: 10.0.0.2", true, 6, 0},
		{"node N6:", true, 6, 0},
		{"node N6:  10.0.0.2\t10.0.0.3", true, 6, 0},
		{"node  N6: 10.0.0.2", true, 6, 0},
		{"node N-6: 10.0.0.2", true, -6, 0},
		{"node N+6: 10.0.0.2", true, 6, 0},
		{"node N6 10.0.0.2", false, 0, 0},                     // missing ':'
		{"node 6: 10.0.0.2", false, 0, 0},                     // missing N
		{"node Nx: 10.0.0.2", false, 0, 0},                    // non-numeric id
		{"node N: 10.0.0.2", false, 0, 0},                     // empty id
		{"node N99999999999999999999: 10.0.0.2", false, 0, 0}, // id overflows int
		{"node N6: bogus", false, 0, 0},                       // bad address
	}
	for _, c := range cases {
		snap, err := Parse(strings.NewReader(head + c.line + "\n"))
		if !c.ok {
			if err == nil {
				t.Errorf("%q: accepted, want an error", c.line)
			} else if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("%q: error %q does not name line 2", c.line, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.line, err)
			continue
		}
		var found bool
		for _, n := range snap.Nodes {
			if n.ID == c.id {
				found = true
				if c.asn != 0 && n.ASN != c.asn {
					t.Errorf("%q: node N%d ASN %d, want %d", c.line, c.id, n.ASN, c.asn)
				}
			}
		}
		if !found {
			t.Errorf("%q: no node N%d in %+v", c.line, c.id, snap.Nodes)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	in, al := buildWorld(b)
	g := BuildGraph(in.TraceAll(), al, in.Table, func(a netip.Addr) string {
		if ifc := in.Interface(a); ifc != nil {
			return ifc.Hostname
		}
		return ""
	})
	ann := make(map[int]asn.ASN)
	for _, n := range g.Nodes {
		ann[n.ID] = g.Origin(n.Ifaces[0])
	}
	var buf bytes.Buffer
	if _, err := FromGraph(g, ann, "itdk-bench", "rtaa").WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
