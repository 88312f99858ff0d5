package match

import (
	"math/rand"
	"strings"
	"testing"

	"hoiho/internal/rex"
)

func mustOpen(t *testing.T, toks ...rex.Token) *rex.Regex {
	t.Helper()
	r, err := rex.NewOpen(toks...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkParity asserts the compiled engine and the stdlib oracle agree on
// host: match/no-match, winning index, and capture span.
func checkParity(t *testing.T, r *rex.Regex, host string) {
	t.Helper()
	eng := Compile([]*rex.Regex{r})
	ora := NewRegexpSet([]*rex.Regex{r})
	if eng.Len() != ora.Len() {
		t.Fatalf("regex %q: engine kept %d programs, oracle %d", r, eng.Len(), ora.Len())
	}
	gh, gok := eng.MatchString(host)
	wh, wok := ora.MatchString(host)
	if gok != wok || gh != wh {
		t.Fatalf("parity broken: regex %q host %q:\n  compiled %+v ok=%v\n  stdlib   %+v ok=%v",
			r, host, gh, gok, wh, wok)
	}
}

// parityHosts stresses anchoring, backtracking, case, invalid UTF-8,
// multi-byte runes, and boundary lengths.
var parityHosts = []string{
	"", ".", "-", "as64512.example.net", "AS64512.EXAMPLE.NET",
	"as0-x.example.net", "xas15576.nts.ch", "as15576.nts.ch", "asxas9.nts.ch",
	"a.b.c.d", "999", "as999", "as12-pop.x.net", "as12-pop-9.x.net",
	"é.example.net", "as\xff\xfe12.net", "\xffas12.net", "as12é.net",
	"aaaaaaaaaaaaaaaaaaaaaaaa", "as--12..net", "-as9_p.net", "p9s", "sas9",
	"s9.net", "9.net", "as007.example.net", "as4294967295.x", "as4294967296.x",
	"\xe0\x80as9.net", "as9\xed\xa0\x80.net", "a123b", "1a2b3c",
	"as9p.net", "as9.net", "as9s.net", "r9x.net", "as9abc.net",
}

func tableRegexes(t *testing.T) []*rex.Regex {
	return []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".example.net")),
		mustOpen(t, rex.Lit("as"), rex.Capture(), rex.Lit(".nts.ch")),
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".x.net")),
		rex.MustNew(rex.Excl(".-"), rex.Lit("-as"), rex.Capture(), rex.DotPlus()),
		rex.MustNew(rex.Alt(true, "p", "s"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Alt(false, "as", "r"), rex.Capture(), rex.ClassTok(rex.ClassAlpha), rex.Lit(".net")),
		rex.MustNew(rex.DotPlus(), rex.Lit("as"), rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.CaptureAlpha(), rex.Lit("-"), rex.ClassTok(rex.ClassAlnum), rex.Lit(".org")),
		rex.MustNew(rex.ClassTok(rex.ClassDigit), rex.Lit("x"), rex.Capture()),
		mustOpen(t, rex.Capture(), rex.Lit(".net")),
		rex.MustNew(rex.Capture()),
		rex.MustNew(rex.Excl("."), rex.Capture(), rex.Excl(".")),
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Alt(true, "p", "s"), rex.Lit(".net")),
		mustOpen(t, rex.Excl("."), rex.Lit("-"), rex.Capture(), rex.Lit(".net")),
	}
}

func TestCompiledMatchParityTable(t *testing.T) {
	for _, r := range tableRegexes(t) {
		for _, host := range parityHosts {
			checkParity(t, r, host)
		}
		checkParity(t, r, strings.Repeat("a9.", 40)+"net")
	}
}

// specAST deterministically builds a rex AST from raw bytes — shared by
// the randomized property tests and the fuzz targets. Literal and
// exclusion alphabets stay within hostname-ish ASCII so the rendered
// regex always compiles; subject hostnames remain arbitrary bytes.
func specAST(spec []byte) *rex.Regex { return buildSpecAST(spec, false) }

// wideSpecAST is specAST over alphabets that add regex syntax bytes,
// non-ASCII and invalid UTF-8 to literals, alternatives and exclusion
// sets, so the rendered regex may not compile, or may compile into
// something other than the token sequence says: the inputs on which the
// compile gate and the oracle lowering are decided.
func wideSpecAST(spec []byte) *rex.Regex { return buildSpecAST(spec, true) }

func buildSpecAST(spec []byte, wide bool) *rex.Regex {
	litChars := "ab9z0.-_s"
	excls := []string{".", "-", ".-", "_", ".-_", "a"}
	altChars := []string{"p", "s", "as", "", "r9"}
	if wide {
		litChars += "\\[](^$|*é\xff"
		excls = append(excls, "", "]", "a]", "\\", "[", "[:", ":]", "^", "é", "\xff", "\n")
		altChars = append(altChars, "\xff", "(", "]", "é")
	}
	var toks []rex.Token
	capPlaced, dotUsed := false, false
	for i := 0; i+1 < len(spec) && len(toks) < 12; i += 2 {
		sel, pay := spec[i], spec[i+1]
		switch sel % 7 {
		case 0:
			n := int(pay%3) + 1
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(litChars[(int(pay)+j*7)%len(litChars)])
			}
			toks = append(toks, rex.Lit(sb.String()))
		case 1:
			if !capPlaced {
				capPlaced = true
				toks = append(toks, rex.Capture())
			}
		case 2:
			toks = append(toks, rex.Excl(excls[int(pay)%len(excls)]))
		case 3:
			toks = append(toks, rex.ClassTok(rex.Class(pay%3)))
		case 4:
			if !dotUsed {
				dotUsed = true
				toks = append(toks, rex.DotPlus())
			}
		case 5:
			alts := make([]string, int(pay%3)+1)
			for j := range alts {
				alts[j] = altChars[(int(pay)+j)%len(altChars)]
			}
			toks = append(toks, rex.Alt(pay&8 != 0, alts...))
		case 6:
			if !capPlaced {
				capPlaced = true
				toks = append(toks, rex.CaptureAlpha())
			}
		}
	}
	if !capPlaced {
		toks = append(toks, rex.Capture())
	}
	var r *rex.Regex
	var err error
	if len(spec) > 0 && spec[0]&1 == 1 {
		r, err = rex.NewOpen(toks...)
	} else {
		r, err = rex.New(toks...)
	}
	if err != nil {
		return nil
	}
	return r
}

func randHost(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(24))
	for i := range b {
		if rng.Intn(10) == 0 {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, including invalid UTF-8
		} else {
			b[i] = "as019.-_pzé"[rng.Intn(11)]
		}
	}
	return string(b)
}

func TestCompiledMatchParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		spec := make([]byte, rng.Intn(20)+2)
		rng.Read(spec)
		r := specAST(spec)
		if r == nil {
			continue
		}
		for _, host := range parityHosts {
			checkParity(t, r, host)
		}
		for j := 0; j < 10; j++ {
			checkParity(t, r, randHost(rng))
		}
	}
}

// TestProgramSpans runs the FuzzProgramSpans properties over the parity
// table and over random hostname-ish and wide ASTs.
func TestProgramSpans(t *testing.T) {
	for _, r := range tableRegexes(t) {
		for _, host := range parityHosts {
			checkProgram(t, r, host)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 600; iter++ {
		spec := make([]byte, rng.Intn(20)+2)
		rng.Read(spec)
		r := specAST(spec)
		if iter%2 == 1 {
			r = wideSpecAST(spec)
		}
		if r == nil {
			continue
		}
		for _, host := range parityHosts {
			checkProgram(t, r, host)
		}
		for j := 0; j < 10; j++ {
			checkProgram(t, r, randHost(rng))
		}
	}
}

// TestEngineSetParity exercises the multi-program path — NC order
// priority, index alignment, and the shared tail trie — against the
// oracle over the same set.
func TestEngineSetParity(t *testing.T) {
	set := []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit(".x.net")),
		rex.MustNew(rex.Lit("r"), rex.Capture(), rex.Lit(".x.net")), // shares a tail
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".x.org")),
		mustOpen(t, rex.Lit("as"), rex.Capture(), rex.Lit(".y.net")),
		rex.MustNew(rex.Capture(), rex.DotPlus()), // no literal tail
		rex.MustNew(rex.Lit("p"), rex.Capture(), rex.Lit(".x.net")),
	}
	eng := Compile(set)
	ora := NewRegexpSet(set)
	if eng.Len() != len(set) || ora.Len() != len(set) {
		t.Fatalf("kept %d/%d of %d regexes", eng.Len(), ora.Len(), len(set))
	}
	if eng.trie == nil {
		t.Fatal("engine with 6 tailed programs built no trie")
	}
	hosts := append([]string{}, parityHosts...)
	hosts = append(hosts, "as9.x.net", "r9.x.net", "p9.x.net", "as9-a.x.org",
		"z.as9.y.net", "9whatever", "as9.x.netx", "x.net")
	for _, host := range hosts {
		gh, gok := eng.MatchString(host)
		wh, wok := ora.MatchString(host)
		if gok != wok || gh != wh {
			t.Fatalf("set parity broken on %q: compiled %+v %v, stdlib %+v %v",
				host, gh, gok, wh, wok)
		}
	}
}

func TestMatchStringAllocs(t *testing.T) {
	eng := Compile([]*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".carrier.net")),
	})
	hit := "as1234-pop1.carrier.net"
	missTail := "as1234-pop1.carrier.org"
	missBody := "lo0.core55.carrier.net"
	if _, ok := eng.MatchString(hit); !ok {
		t.Fatal("expected hit")
	}
	allocs := testing.AllocsPerRun(500, func() {
		eng.MatchString(hit)
		eng.MatchString(missTail)
		eng.MatchString(missBody)
	})
	if allocs != 0 {
		t.Fatalf("MatchString allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestBacktrackBudgetFallback: stacked exclusion runs that fail late
// would backtrack exponentially; the program must exhaust its step
// budget, fall back to the stdlib engine, and still agree with it.
func TestBacktrackBudgetFallback(t *testing.T) {
	toks := []rex.Token{rex.Capture()}
	for i := 0; i < 12; i++ {
		toks = append(toks, rex.Excl("-"))
	}
	toks = append(toks, rex.Lit("!"))
	r := rex.MustNew(toks...)
	checkParity(t, r, "1"+strings.Repeat("a", 40))         // no match, exponential without budget
	checkParity(t, r, "1"+strings.Repeat("a", 40)+"!")     // match
	checkParity(t, r, "123"+strings.Repeat("ab", 20)+"x!") // match with digits run
}

// TestOracleProgram: an AST the lowering cannot represent (non-ASCII
// exclusion characters are rune-level class semantics) must keep stdlib
// matching behind the same prefilters.
func TestOracleProgram(t *testing.T) {
	r := rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Excl("é"), rex.Lit(".net"))
	p, ok := compileProgram(r)
	if !ok {
		t.Fatal("program did not compile")
	}
	if !p.oracle {
		t.Fatal("non-ASCII exclusion should force the oracle path")
	}
	for _, host := range append(parityHosts, "as9x.net", "as9é.net") {
		checkParity(t, r, host)
	}
}

func TestTailTrie(t *testing.T) {
	ps := []*program{
		{tailLit: ".x.net"},
		{tailLit: ".net"},
		{tailLit: ".x.net"}, // duplicate tail shares a bit
		{tailLit: ".org"},
		{tailLit: ""}, // no tail: never pruned
	}
	tr := newTailTrie(ps)
	if tr == nil {
		t.Fatal("no trie built")
	}
	if ps[0].tailID != ps[2].tailID {
		t.Fatal("duplicate tails got distinct ids")
	}
	if ps[4].tailID != -1 {
		t.Fatal("tail-less program got a tail id")
	}
	cases := []struct {
		host string
		want map[int]bool // tailID -> present
	}{
		{"a.x.net", map[int]bool{ps[0].tailID: true, ps[1].tailID: true, ps[3].tailID: false}},
		{"a.y.net", map[int]bool{ps[0].tailID: false, ps[1].tailID: true}},
		{"a.org", map[int]bool{ps[3].tailID: true, ps[1].tailID: false}},
		{"net", map[int]bool{ps[1].tailID: false}},
		{"", map[int]bool{ps[0].tailID: false, ps[1].tailID: false, ps[3].tailID: false}},
	}
	for _, c := range cases {
		mask := tr.suffixMask(c.host)
		for id, want := range c.want {
			if got := mask&(1<<uint(id)) != 0; got != want {
				t.Errorf("suffixMask(%q) bit %d = %v, want %v", c.host, id, got, want)
			}
		}
	}
}

func BenchmarkEngineMatch(b *testing.B) {
	set := []*rex.Regex{
		rex.MustNew(rex.Lit("as"), rex.Capture(), rex.Lit("-"), rex.Excl("."), rex.Lit(".carrier.net")),
	}
	eng := Compile(set)
	ora := NewRegexpSet(set)
	hosts := []string{"as1234-pop1.carrier.net", "lo0.core55.carrier.net", "as1234-pop1.other.org"}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.MatchString(hosts[i%len(hosts)])
		}
	})
	b.Run("regexp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ora.MatchString(hosts[i%len(hosts)])
		}
	})
}
