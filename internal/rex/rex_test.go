package rex

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRenderPaperSyntax(t *testing.T) {
	cases := []struct {
		r    *Regex
		want string
	}{
		{
			MustNew(Capture(), Lit("."), Excl("."), Lit(".equinix.com")),
			`^(\d+)\.[^\.]+\.equinix\.com$`,
		},
		{
			MustNew(Lit("p"), Capture(), Lit("."), Excl("."), Lit(".equinix.com")),
			`^p(\d+)\.[^\.]+\.equinix\.com$`,
		},
		{
			MustNew(Capture(), Lit("-"), DotPlus(), Lit(".equinix.com")),
			`^(\d+)-.+\.equinix\.com$`,
		},
		{
			MustNew(Alt(true, "p", "s"), Capture(), Lit("."), ClassTok(ClassAlnum), Lit(".equinix.com")),
			`^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$`,
		},
		{
			MustNew(Lit("as"), Capture(), Lit(".nts.ch")),
			`^as(\d+)\.nts\.ch$`,
		},
		{
			MustNew(Capture(), Lit("-"), Excl("-"), Lit("-"), Excl("-."), Lit(".x.net")),
			`^(\d+)-[^-]+-[^\.-]+\.x\.net$`,
		},
		{
			MustNew(ClassTok(ClassAlpha), Capture(), ClassTok(ClassDigit), Lit(".y.net")),
			`^[a-z]+(\d+)\d+\.y\.net$`,
		},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Lit("a")); err == nil {
		t.Error("no capture should error")
	}
	if _, err := New(Capture(), Capture()); err == nil {
		t.Error("two captures should error")
	}
	if _, err := New(Capture(), DotPlus(), Lit("."), DotPlus()); err == nil {
		t.Error("two .+ should error")
	}
	// Empty literals dropped, adjacent literals coalesced.
	r := MustNew(Lit(""), Lit("as"), Lit("n"), Capture(), Lit(""))
	if r.NumTokens() != 2 {
		t.Errorf("tokens = %d, want 2 (%s)", r.NumTokens(), r)
	}
	if r.String() != `^asn(\d+)$` {
		t.Errorf("String = %q", r.String())
	}
}

func TestExtract(t *testing.T) {
	r := MustNew(Alt(true, "p", "s"), Capture(), Lit("."), ClassTok(ClassAlnum), Lit(".equinix.com"))
	cases := []struct {
		host, asn string
		ok        bool
	}{
		{"714.os.equinix.com", "714", true},
		{"p714.sgw.equinix.com", "714", true},
		{"s24115.tyo.equinix.com", "24115", true},
		{"24482-fr5-ix.equinix.com", "", false},
		{"netflix.zh2.corp.eu.equinix.com", "", false},
		{"x714.sgw.equinix.com", "", false},
	}
	for _, c := range cases {
		asn, s, e, ok := r.Extract(c.host)
		if ok != c.ok || asn != c.asn {
			t.Errorf("Extract(%q) = %q,%v want %q,%v", c.host, asn, ok, c.asn, c.ok)
		}
		if ok && c.host[s:e] != asn {
			t.Errorf("Extract(%q) offsets wrong: %d..%d", c.host, s, e)
		}
	}
}

func TestExtractAnchored(t *testing.T) {
	r := MustNew(Lit("as"), Capture(), Lit(".nts.ch"))
	if _, _, _, ok := r.Extract("x.as15576.nts.ch"); ok {
		t.Error("should be anchored at start")
	}
	if _, _, _, ok := r.Extract("as15576.nts.ch.x"); ok {
		t.Error("should be anchored at end")
	}
	if asn, _, _, ok := r.Extract("as15576.nts.ch"); !ok || asn != "15576" {
		t.Errorf("got %q,%v", asn, ok)
	}
}

func TestTokenSpans(t *testing.T) {
	r := MustNew(Alt(true, "p", "s"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	spans, ok := r.TokenSpans("p714.sgw.equinix.com")
	if !ok {
		t.Fatal("no match")
	}
	host := "p714.sgw.equinix.com"
	if host[spans[0][0]:spans[0][1]] != "p" {
		t.Errorf("alt span = %v", spans[0])
	}
	if host[spans[1][0]:spans[1][1]] != "714" {
		t.Errorf("capture span = %v", spans[1])
	}
	if host[spans[3][0]:spans[3][1]] != "sgw" {
		t.Errorf("excl span = %v", spans[3])
	}
	// Optional alternation absent: span is zero-width.
	spans, ok = r.TokenSpans("714.os.equinix.com")
	if !ok {
		t.Fatal("no match")
	}
	if spans[0][0] != spans[0][1] {
		t.Errorf("absent alt span = %v", spans[0])
	}
}

func TestMergeSameLength(t *testing.T) {
	a := MustNew(Lit("p"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	b := MustNew(Lit("s"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	m, ok := Merge(a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	if m.String() != `^(?:p|s)(\d+)\.[^\.]+\.equinix\.com$` {
		t.Errorf("merged = %q", m.String())
	}
}

func TestMergeOptional(t *testing.T) {
	// Figure 4, phase 2: regexes #1 (no prefix), #2 ("p"), #3 ("s")
	// merge into ^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$.
	r1 := MustNew(Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	r2 := MustNew(Lit("p"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	r3 := MustNew(Lit("s"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	m12, ok := Merge(r2, r1)
	if !ok {
		t.Fatal("merge r2,r1 failed")
	}
	if m12.String() != `^(?:p)?(\d+)\.[^\.]+\.equinix\.com$` {
		t.Errorf("m12 = %q", m12.String())
	}
	m, ok := Merge(m12, r3)
	if !ok {
		t.Fatal("merge m12,r3 failed")
	}
	if m.String() != `^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$` {
		t.Errorf("m = %q", m.String())
	}
	// And the merged regex matches all three shapes.
	for host, want := range map[string]string{
		"109.sgw.equinix.com":    "109",
		"p714.sgw.equinix.com":   "714",
		"s24115.tyo.equinix.com": "24115",
	} {
		if got, _, _, ok := m.Extract(host); !ok || got != want {
			t.Errorf("Extract(%q) = %q,%v", host, got, ok)
		}
	}
}

func TestMergeRejects(t *testing.T) {
	a := MustNew(Lit("p"), Capture(), Lit(".x.com"))
	b := MustNew(Lit("s"), Capture(), Lit(".y.com"))
	if _, ok := Merge(a, b); ok {
		t.Error("two differing positions should not merge")
	}
	c := MustNew(Excl("."), Capture(), Lit(".x.com"))
	d := MustNew(DotPlus(), Capture(), Lit(".x.com"))
	if _, ok := Merge(c, d); ok {
		t.Error("non-literal difference should not merge")
	}
	if _, ok := Merge(a, a); ok {
		t.Error("identical regexes should not merge")
	}
	long := MustNew(Lit("p"), Capture(), Lit("."), Excl("."), Lit(".x.com"))
	short := MustNew(Capture(), Lit(".x.com"))
	if _, ok := Merge(long, short); ok {
		t.Error("length difference of 2 should not merge")
	}
}

func TestMergeExtraNonAdjacent(t *testing.T) {
	// Extra literal token in the middle.
	long := MustNew(Capture(), Lit("-"), Lit("x"), Excl("."), Lit(".a.com"))
	// After coalescing, long is [Capture, Lit("-x"), Excl, Lit(".a.com")]
	// so the short variant differs structurally; construct a true
	// extra-token case with non-literal neighbors instead.
	long = MustNew(Capture(), Excl("-"), Lit("ix"), Excl("."), Lit(".a.com"))
	short := MustNew(Capture(), Excl("-"), Excl("."), Lit(".a.com"))
	m, ok := Merge(long, short)
	if !ok {
		t.Fatal("merge failed")
	}
	if !strings.Contains(m.String(), "(?:ix)?") {
		t.Errorf("merged = %q", m.String())
	}
}

func TestWithToken(t *testing.T) {
	r := MustNew(Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	r2, err := r.WithToken(2, ClassTok(ClassAlnum))
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != `^(\d+)\.[a-z\d]+\.equinix\.com$` {
		t.Errorf("r2 = %q", r2.String())
	}
	// Original unchanged.
	if r.String() != `^(\d+)\.[^\.]+\.equinix\.com$` {
		t.Errorf("r mutated: %q", r.String())
	}
	if _, err := r.WithToken(99, Lit("x")); err == nil {
		t.Error("out of range should error")
	}
}

func TestNarrowestClass(t *testing.T) {
	cases := []struct {
		samples []string
		class   Class
		ok      bool
	}{
		{[]string{"sgw", "os", "tyo"}, ClassAlpha, true},
		{[]string{"01", "02"}, ClassDigit, true},
		{[]string{"sgw", "me1", "tyo"}, ClassAlnum, true},
		{[]string{"fr5", "ix2"}, ClassAlnum, true},
		{[]string{}, 0, false},
		{[]string{"a-b"}, 0, false},
		{[]string{""}, 0, false},
	}
	for _, c := range cases {
		cl, ok := NarrowestClass(c.samples)
		if ok != c.ok || (ok && cl != c.class) {
			t.Errorf("NarrowestClass(%v) = %v,%v want %v,%v", c.samples, cl, ok, c.class, c.ok)
		}
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(Lit("as"), Capture(), Lit(".x.com"))
	b := MustNew(Lit("as"), Capture(), Lit(".x.com"))
	c := MustNew(Lit("gw"), Capture(), Lit(".x.com"))
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal wrong")
	}
	d := MustNew(Alt(false, "p", "s"), Capture(), Lit(".x.com"))
	e := MustNew(Alt(true, "p", "s"), Capture(), Lit(".x.com"))
	if d.Equal(e) {
		t.Error("Opt flag should distinguish")
	}
}

// Property: every regex we can render also compiles, and Extract's result
// is always a digit string found inside the hostname at the reported
// offsets.
func TestCompileAndExtractQuick(t *testing.T) {
	f := func(prefix, mid uint8, useDot bool) bool {
		litPrefix := []string{"", "p", "s", "as", "gw-"}[int(prefix)%5]
		var midTok Token
		switch mid % 4 {
		case 0:
			midTok = Excl(".")
		case 1:
			midTok = Excl("-.")
		case 2:
			midTok = ClassTok(ClassAlnum)
		default:
			midTok = ClassTok(ClassAlpha)
		}
		toks := []Token{Lit(litPrefix), Capture(), Lit(".")}
		if useDot {
			toks = append(toks, DotPlus())
		} else {
			toks = append(toks, midTok)
		}
		toks = append(toks, Lit(".example.com"))
		r, err := New(toks...)
		if err != nil {
			return false
		}
		if _, err := r.Compile(); err != nil {
			return false
		}
		host := litPrefix + "12345.abc.example.com"
		asn, s, e, ok := r.Extract(host)
		if !ok {
			// ClassAlpha does not match "abc"? it does; all should match
			return false
		}
		return asn == "12345" && host[s:e] == asn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendString over a raw token sequence — empty literals,
// adjacent literals, metacharacters included — renders exactly the
// String() of the Regex New (or NewOpen) builds from the same tokens.
func TestAppendStringMatchesBuild(t *testing.T) {
	lits := []string{"", "", "as", ".", "-", "x.y", `a+b`, "(", "é"}
	pool := []Token{
		Capture(), CaptureAlpha(), DotPlus(), Excl("."), Excl("-."), Excl(""),
		ClassTok(ClassAlpha), ClassTok(ClassDigit), ClassTok(ClassAlnum),
		Alt(true, "p", "s"), Alt(false, "as", "", "r."),
	}
	f := func(spec []uint8, open bool) bool {
		var toks []Token
		for _, b := range spec {
			if b%2 == 0 {
				toks = append(toks, Lit(lits[int(b/2)%len(lits)]))
			} else {
				toks = append(toks, pool[int(b/2)%len(pool)])
			}
		}
		build := New
		if open {
			build = NewOpen
		}
		r, err := build(toks...)
		if err != nil {
			return true // New rejects the sequence: nothing to render
		}
		return string(AppendString([]byte("junk"), open, toks)) == "junk"+r.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Coalescing and dropping, explicitly.
	toks := []Token{Lit(""), Lit("a."), Lit("b"), Capture(), Lit(""), Lit("-"), Lit(".net")}
	r := MustNew(toks...)
	if r.NumTokens() != 3 {
		t.Fatalf("New kept %d tokens, want 3", r.NumTokens())
	}
	if got, want := string(AppendString(nil, false, toks)), `^a\.b(\d+)-\.net$`; got != want || r.String() != want {
		t.Fatalf("AppendString %q, String %q, want %q", got, r.String(), want)
	}
}

// Property: merging is symmetric in match semantics — the merged regex
// matches everything either input matched.
func TestMergeCoversInputs(t *testing.T) {
	a := MustNew(Lit("p"), Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	b := MustNew(Capture(), Lit("."), Excl("."), Lit(".equinix.com"))
	m, ok := Merge(a, b)
	if !ok {
		t.Fatal("merge failed")
	}
	hosts := []string{"p714.sgw.equinix.com", "109.sgw.equinix.com"}
	for _, h := range hosts {
		_, _, _, aok := a.Extract(h)
		_, _, _, bok := b.Extract(h)
		_, _, _, mok := m.Extract(h)
		if (aok || bok) && !mok {
			t.Errorf("merged regex lost coverage of %q", h)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	r := MustNew(Alt(true, "p", "s"), Capture(), Lit("."), ClassTok(ClassAlnum), Lit(".equinix.com"))
	if _, err := r.Compile(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Extract("p714.sgw.equinix.com")
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MustNew(Alt(true, "p", "s"), Capture(), Lit("."), ClassTok(ClassAlnum), Lit(".equinix.com"))
		if _, err := r.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}
