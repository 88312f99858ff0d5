// Package match compiles learned naming-convention regexes (the
// internal/rex AST) into specialized byte-level matchers. The paper's
// conventions are a narrow, fully structured subset of regex — anchored
// literal/class/exclusion sequences with a single ASN capture — so
// instead of interpreting them through the general-purpose regexp
// machinery per hostname, each suffix's NC set compiles once into an
// Engine: per-regex prefilters (required head/tail literals, minimum
// length) rejected with plain byte comparisons, a shared reversed trie
// over the set's anchored tail literals so one backward pass over the
// hostname prunes the candidate regexes, and a small backtracking VM
// that replicates the stdlib's leftmost-first capture semantics without
// submatch machinery or allocation.
//
// The stdlib path is retained as the oracle: NewRegexpSet implements the
// same Matcher interface on regexp, the property tests and the
// FuzzCompiledMatchParity target assert agreement between the two on
// match/no-match, winning regex index, and capture span, and a compiled
// program whose backtracking exceeds its step budget (possible only on
// pathological inputs, never on learned conventions) falls back to the
// stdlib compilation of the same regex mid-match, so the fast path can
// never change an answer.
package match

import (
	"regexp"
	"strings"

	"hoiho/internal/rex"
)

// Hit is one successful match: the index of the winning regex within
// the matcher's compiled set (regexes are tried in NC order, first match
// wins) and the byte span of its ASN capture group in the hostname.
type Hit struct {
	Index int
	Start int
	End   int
}

// Matcher is the per-suffix matching contract shared by the compiled
// Engine and the stdlib-backed RegexpSet. Implementations are immutable
// after construction and safe for concurrent use.
type Matcher interface {
	// MatchString reports the first regex in the set matching host, with
	// the capture span, mirroring the semantics of running each regex's
	// FindStringSubmatchIndex in order.
	MatchString(host string) (Hit, bool)
	// Len reports how many regexes compiled into the set (regexes whose
	// stdlib compilation fails are dropped, as the serving path has
	// always done).
	Len() int
}

// trieThreshold gates the shared tail trie: sets smaller than this check
// their own tail literal directly (one memcmp beats a byte-walk), larger
// sets amortize one backward pass across all candidates.
const trieThreshold = 4

// Engine is the compiled form of one suffix's regex set.
type Engine struct {
	programs []*program
	trie     *tailTrie
}

// Compile lowers each regex into a compiled program, in order. Regexes
// that the stdlib cannot compile are dropped — exactly the set
// NewRegexpSet drops, so compiled and oracle indexes stay aligned.
func Compile(regexes []*rex.Regex) *Engine {
	e := &Engine{}
	for i, r := range regexes {
		if r == nil {
			continue
		}
		if p, ok := compileProgram(r); ok {
			p.rxIndex = i
			e.programs = append(e.programs, p)
		}
	}
	if len(e.programs) >= trieThreshold {
		e.trie = newTailTrie(e.programs)
	}
	if e.trie == nil {
		for _, p := range e.programs {
			p.tailID = -1
		}
	}
	return e
}

// Len reports the number of compiled programs.
func (e *Engine) Len() int { return len(e.programs) }

// MatchString tries each program in order and returns the first hit.
// It performs no allocation.
func (e *Engine) MatchString(host string) (Hit, bool) {
	if len(e.programs) == 1 {
		// Most suffixes compile to a single program; skip the trie mask
		// and candidate loop entirely.
		if s, en, ok := e.programs[0].match(host); ok {
			return Hit{Start: s, End: en}, true
		}
		return Hit{}, false
	}
	var mask uint64
	if e.trie != nil {
		mask = e.trie.suffixMask(host)
	}
	for i, p := range e.programs {
		if p.tailID >= 0 && mask&(1<<uint(p.tailID)) == 0 {
			continue
		}
		if s, en, ok := p.match(host); ok {
			return Hit{Index: i, Start: s, End: en}, true
		}
	}
	return Hit{}, false
}

// Program is one regex compiled on its own: the learner's per-candidate
// matcher. It runs the lowered program, det loop and VM an Engine runs
// for the same regex, and it is immutable and safe for concurrent use.
type Program struct {
	p   *program
	src *rex.Regex
}

// CompileOne lowers r through the path Compile takes for each of its
// regexes. ok is false exactly when Compile would drop r: when
// regexp.Compile rejects r.String().
func CompileOne(r *rex.Regex) (*Program, bool) {
	p, ok := compileProgram(r)
	if !ok {
		return nil, false
	}
	return &Program{p: p, src: r}, true
}

// Match reports whether host matches and the byte span of the capture:
// the answer rex.Extract gives for the source regex.
func (p *Program) Match(host string) (start, end int, ok bool) {
	return p.p.match(host)
}

// AppendSpans matches host and appends the byte span each token of the
// source regex covered to dst[:0], aligned with its Tokens() exactly as
// rex.AppendTokenSpans reports them (an optional alternation that
// matched nothing spans zero bytes). The spans are recorded by the VM on
// its successful path. An oracle program, or a match that runs out of
// steps, answers through rex.AppendTokenSpans instead.
func (p *Program) AppendSpans(dst [][2]int, host string) ([][2]int, bool) {
	pr := p.p
	if pr.oracle {
		return p.src.AppendTokenSpans(dst, host)
	}
	if len(host) < pr.minLen || pr.tailLit != "" && !strings.HasSuffix(host, pr.tailLit) {
		return dst[:0], false
	}
	spans := dst[:0]
	for range pr.ops {
		spans = append(spans, [2]int{})
	}
	v := vm{host: host, steps: stepBudget, spans: spans}
	if pr.search(&v) {
		return spans, true
	}
	if v.steps < 0 {
		return p.src.AppendTokenSpans(dst, host)
	}
	return dst[:0], false
}

// RegexpSet is the stdlib implementation of Matcher: the property-test
// and fuzz oracle for Engine, and the fallback serving path selectable
// via extract.WithMatcher.
type RegexpSet struct {
	res []*regexp.Regexp
}

// NewRegexpSet compiles regexes with the stdlib, dropping failures.
func NewRegexpSet(regexes []*rex.Regex) *RegexpSet {
	rs := &RegexpSet{}
	for _, r := range regexes {
		if r == nil {
			continue
		}
		re, err := r.Compile()
		if err != nil {
			continue
		}
		rs.res = append(rs.res, re)
	}
	return rs
}

// Len reports the number of compiled regexes.
func (rs *RegexpSet) Len() int { return len(rs.res) }

// MatchString runs each regex in order via FindStringSubmatchIndex.
func (rs *RegexpSet) MatchString(host string) (Hit, bool) {
	for i, re := range rs.res {
		m := re.FindStringSubmatchIndex(host)
		if len(m) < 4 || m[2] < 0 { // no match, or the capture group did not survive rendering
			continue
		}
		return Hit{Index: i, Start: m[2], End: m[3]}, true
	}
	return Hit{}, false
}
