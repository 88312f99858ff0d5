package core

import (
	"sort"

	"hoiho/internal/hostname"
	"hoiho/internal/rex"
)

// Phase 1 (§3.2): generate base regexes.
//
// For every training hostname containing an apparent ASN, the generator
// emits candidate regexes that capture the ASN with (\d+), embed the
// alphanumeric characters sharing the ASN's punctuation-delimited part as
// literals (e.g. the "p" of "p714"), keep the suffix as a literal, and
// cover the remaining parts with exclusion components ([^\.]+, [^-]+),
// or with a single ".+" (at most once per regex), or by leaving the
// regex unanchored on the left (figure 2's "as(\d+)\.nts\.ch$").

// exclMode selects which adjacent delimiters an exclusion component
// excludes, mirroring the paper's "[^\.]+ and [^-]+ ... depending on the
// punctuation at the beginning and end of each portion".
type exclMode uint8

const (
	exclBoth  exclMode = iota // exclude both adjacent delimiters
	exclLeft                  // exclude only the preceding delimiter
	exclRight                 // exclude only the following delimiter
)

// generate builds the deduplicated base-regex pool for the set.
func (s *Set) generate() []*rex.Regex {
	g := generator{seen: make(map[string]*rex.Regex)}
	limit := s.opts.maxGenItems()
	n := 0
	for i := 0; i < s.ar.len(); i++ {
		if !s.ar.apparent[i] {
			continue
		}
		if n >= limit {
			break
		}
		n++
		s.candidatesForItem(i, &g)
	}
	// The pool order feeds mergePhase's capped pairing and rank
	// tiebreaks, so it must not inherit map iteration order.
	keys := make([]string, 0, len(g.seen))
	for key := range g.seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]*rex.Regex, 0, len(keys))
	for _, key := range keys {
		out = append(out, g.seen[key])
	}
	return out
}

// generator is phase 1's dedupe state. Most candidates repeat across
// items (every hostname of one convention assembles the same token
// sequences), so each sequence is keyed by its rendering first and
// becomes a Regex only the first time its key is seen.
type generator struct {
	seen map[string]*rex.Regex // rendering -> first Regex with it
	toks []rex.Token           // assemble's scratch; rex.New copies it
	key  []byte                // rendering scratch
}

// add keeps the candidate toks (left-open when leftOpen) unless a
// candidate with the same rendering is already pooled.
func (g *generator) add(leftOpen bool, toks []rex.Token) {
	g.key = rex.AppendString(g.key[:0], leftOpen, toks)
	if _, ok := g.seen[string(g.key)]; ok {
		return
	}
	var (
		r   *rex.Regex
		err error
	)
	if leftOpen {
		r, err = rex.NewOpen(toks...)
	} else {
		r, err = rex.New(toks...)
	}
	if err != nil {
		return
	}
	g.seen[string(g.key)] = r
}

// candidatesForItem enumerates base regexes for item i into g.
func (s *Set) candidatesForItem(i int, g *generator) {
	name := s.ar.name(i)
	sufParts, ok := name.SuffixParts(s.Suffix)
	if !ok {
		return
	}
	parts := name.Parts
	sufStart := len(parts) - sufParts
	if sufStart <= 0 {
		// Hostname is just the suffix: nothing to capture.
		return
	}
	// Literal for the registered-domain tail, including its leading
	// delimiter: that delimiter is the byte just before the suffix's first
	// part, so the literal is a zero-copy slice of the normalized hostname.
	sufLit := name.Full[parts[sufStart].Start-1:]

	typo := !s.opts.DisableTypoCredit
	spans := s.ar.spansOf(i)
	digits := s.ar.digits[i]
	for _, run := range s.ar.runsOf(i) {
		if run.Part >= sufStart {
			continue // ASN embedded in the registered domain itself: skip
		}
		if inSpans(spans, run.Start, run.End()) {
			continue
		}
		if !congruentDigits(run.Text, digits, typo) {
			continue
		}
		k := run.Part
		part := parts[k]
		ctxPre := part.Text[:run.Start-part.Start]
		ctxPost := part.Text[run.End()-part.Start:]

		for _, mode := range []exclMode{exclBoth, exclLeft, exclRight} {
			for _, leftKind := range []string{"full", "dotplus", "open"} {
				for _, rightKind := range []string{"full", "dotplus"} {
					if leftKind == "dotplus" && rightKind == "dotplus" {
						continue // at most one ".+" per regex (§3.2)
					}
					toks, leftOpen, ok := s.assemble(g.toks[:0], parts, k, ctxPre, ctxPost, sufStart, sufLit, mode, leftKind, rightKind)
					g.toks = toks
					if ok {
						g.add(leftOpen, toks)
					}
				}
			}
		}
	}
}

// assemble appends one candidate regex's token sequence to toks; ok is
// false when the combination is degenerate (e.g. a ".+" with no parts
// to cover).
func (s *Set) assemble(toks []rex.Token, parts []hostname.Part, k int, ctxPre, ctxPost string, sufStart int, sufLit string, mode exclMode, leftKind, rightKind string) (out []rex.Token, leftOpen, ok bool) {
	switch leftKind {
	case "full":
		for j := 0; j < k; j++ {
			toks = append(toks, s.component(parts, j, mode), rex.Lit(delimLit(parts[j].Delim)))
		}
	case "dotplus":
		if k == 0 {
			return toks, false, false
		}
		toks = append(toks, rex.DotPlus(), rex.Lit(delimLit(parts[k-1].Delim)))
	case "open":
		if k == 0 {
			return toks, false, false // identical to "full" with no left parts
		}
		leftOpen = true
	}

	toks = append(toks, rex.Lit(ctxPre), rex.Capture(), rex.Lit(ctxPost))

	switch rightKind {
	case "full":
		for j := k + 1; j < sufStart; j++ {
			toks = append(toks, rex.Lit(delimLit(parts[j-1].Delim)), s.component(parts, j, mode))
		}
	case "dotplus":
		if k+1 >= sufStart {
			return toks, false, false
		}
		toks = append(toks, rex.Lit(delimLit(parts[k].Delim)), rex.DotPlus())
	}
	return append(toks, rex.Lit(sufLit)), leftOpen, true
}

// delimLit returns the interned literal string for a part delimiter, so
// the assembly loops never allocate for single-punctuation literals.
func delimLit(b byte) string {
	switch b {
	case '.':
		return "."
	case '-':
		return "-"
	case '_':
		return "_"
	}
	return ""
}

// component builds the variable component for part j: an exclusion class
// over the adjacent delimiters selected by mode, or an exact literal for
// empty parts (consecutive punctuation).
func (s *Set) component(parts []hostname.Part, j int, mode exclMode) rex.Token {
	if parts[j].Text == "" {
		return rex.Lit("")
	}
	var before, after byte
	if j > 0 {
		before = parts[j-1].Delim
	}
	after = parts[j].Delim
	var a, b byte
	switch mode {
	case exclBoth:
		a, b = before, after
	case exclLeft:
		a = before
		if a == 0 {
			a = after
		}
	case exclRight:
		a = after
		if a == 0 {
			a = before
		}
	}
	return rex.Excl(exclChars(a, b))
}

// exclChars returns the interned exclusion-class character string for an
// ordered pair of adjacent delimiters: zero bytes are skipped, a
// duplicate second character collapses, and when neither is punctuation
// (single-part hostname) the class falls back to '.' so the component
// cannot cross into the suffix. Interning the eleven possible strings
// keeps the per-candidate token assembly allocation-free.
func exclChars(a, b byte) string {
	if a == 0 {
		a, b = b, 0
	}
	if b == a {
		b = 0
	}
	switch a {
	case '.':
		switch b {
		case '-':
			return ".-"
		case '_':
			return "._"
		}
		return "."
	case '-':
		switch b {
		case '.':
			return "-."
		case '_':
			return "-_"
		}
		return "-"
	case '_':
		switch b {
		case '.':
			return "_."
		case '-':
			return "_-"
		}
		return "_"
	}
	// No adjacent punctuation at all (single-part hostname).
	return "."
}
