package match

import (
	"math/bits"
	"regexp"
	"strings"
	"unicode/utf8"

	"hoiho/internal/rex"
)

type opKind uint8

const (
	// opLit consumes an exact byte string.
	opLit opKind = iota
	// opSet consumes one or more bytes drawn from an ASCII set: the
	// capture groups "(\d+)" / "([a-z]+)" and the phase-3 classes. ASCII
	// sets never match a non-ASCII byte, so byte stepping and rune
	// stepping agree.
	opSet
	// opExcl consumes one or more runes outside an ASCII set: "[^...]+"
	// and ".+" (which excludes only '\n'). Non-ASCII runes — including
	// each byte of invalid UTF-8, which the stdlib decodes as one-byte
	// U+FFFD — always match, so this op must step by rune.
	opExcl
	// opAlt consumes one alternative of "(?:a|b)", tried in rendered
	// order; when opt is set the empty match is tried last, matching how
	// a backtracking engine treats a greedy "?".
	opAlt
)

// asciiSet is a 128-bit membership set over ASCII bytes.
type asciiSet [2]uint64

func (s *asciiSet) add(b byte) {
	if b < 128 {
		s[b>>6] |= 1 << (b & 63)
	}
}

func (s *asciiSet) addRange(lo, hi byte) {
	for b := lo; b <= hi; b++ {
		s.add(b)
	}
}

func (s *asciiSet) has(b byte) bool {
	return b < 128 && s[b>>6]&(1<<(b&63)) != 0
}

type op struct {
	kind opKind
	lit  string
	set  asciiSet // opSet: allowed bytes; opExcl: excluded bytes
	alts []string
	opt  bool
	// capture marks the single ASN capture op.
	capture bool
	// minW is the minimum number of bytes this op consumes.
	minW int
	// excl1 is the single excluded byte when an opExcl set holds exactly
	// one ASCII byte — "[^.]+" and ".+" — letting the greedy run use one
	// SIMD IndexByte instead of a per-byte set walk. An ASCII byte is
	// never part of a multi-byte rune and invalid bytes decode one at a
	// time, so the first occurrence under byte search and under the
	// rune-stepping scan coincide.
	excl1   byte
	isExcl1 bool
	// isDigit marks an opSet over exactly [0-9]: the capture op of almost
	// every learned convention, scanned with one subtract-compare per
	// byte instead of the general bitset test.
	isDigit bool
	// fixedTail is the exact byte width of everything after this op when
	// the remaining ops are all literals — then a greedy op's end
	// position is forced and needs no backtracking — and -1 otherwise.
	fixedTail int
}

// program is one compiled regex: the lowered op sequence plus the
// prefilters that reject most hostnames without entering the VM.
type program struct {
	ops      []op
	leftOpen bool
	minLen   int
	// headLit is the first op's literal, required as a prefix when the
	// regex is start-anchored and used to skip non-viable start offsets
	// when it is left-open.
	headLit string
	// tailLit is the last op's literal: the regex is always end-anchored,
	// so it is a required hostname suffix.
	tailLit string
	// tailID indexes the owning engine's tail trie, -1 when unused.
	tailID int
	// re is the stdlib compilation of the same regex: the mid-match
	// fallback when the backtracking budget runs out, and the whole
	// matcher when oracle is set (ASTs the lowering cannot represent,
	// e.g. non-ASCII exclusion sets). Only programs that can consult it
	// carry it: det programs leave it nil.
	re     *regexp.Regexp
	oracle bool
	// det marks a program whose every quantified op has exactly one
	// viable end position per attempt — its tail is fixed-width, or the
	// following literal's first byte cannot extend its run — so a match
	// attempt never backtracks and runs on the iterative matchDet loop
	// instead of the VM. Learned conventions are almost always det.
	// det programs never consult re: matchDet and matchDetAll have no
	// stdlib fallback, which is what lets both compileProgram and the
	// binary corpus loader skip regexp compilation for them entirely.
	det bool
	// rxIndex is the program's position in the regex list it compiled
	// from (Compile drops stdlib-uncompilable regexes, so program count
	// can trail regex count). It keys the wire form back to its source.
	rxIndex int
}

// stdlibGateLen bounds the literal bytes a program may carry before its
// acceptance is left to regexp.Compile itself: far below any of the
// stdlib parser's size and nesting limits, far above any learned
// convention.
const stdlibGateLen = 256

// compileProgram lowers r. ok is false when the stdlib cannot compile r
// (such regexes have always been dropped from serving). A lowerable AST
// gets the det loop or the VM; anything else is an oracle program that
// matches through the stdlib.
//
// The stdlib form is compiled only when the program can consult it (the
// oracle, or a non-det program's budget fallback) or when the cheap
// structural gate below cannot vouch that regexp.Compile accepts the
// rendered regex. The gate: every literal, alternative and exclusion
// string is valid UTF-8 (the stdlib rejects any invalid byte in a
// pattern, and literals render QuoteMeta-escaped), every exclusion set
// is non-empty ASCII without '\', '[' or ']' (so "[^...]+" parses as the
// byte set the op holds), and the literal material is short. Anything
// else lowers as an oracle program or is compiled to decide.
// FuzzProgramSpans checks the gate against regexp.Compile.
func compileProgram(r *rex.Regex) (*program, bool) {
	n := r.NumTokens()
	p := &program{leftOpen: r.LeftOpen(), tailID: -1, ops: make([]op, 0, n)}
	supported := true
	litBytes := 0
	for i := 0; i < n; i++ {
		t := r.Token(i)
		var o op
		switch t.Kind {
		case rex.KindLit:
			if !utf8.ValidString(t.Lit) {
				return nil, false
			}
			litBytes += len(t.Lit)
			o = op{kind: opLit, lit: t.Lit}
		case rex.KindCapture:
			o = op{kind: opSet, capture: true}
			o.set.addRange('0', '9')
		case rex.KindCaptureAlpha:
			o = op{kind: opSet, capture: true}
			o.set.addRange('a', 'z')
		case rex.KindClass:
			o = op{kind: opSet}
			switch t.Class {
			case rex.ClassAlpha:
				o.set.addRange('a', 'z')
			case rex.ClassDigit:
				o.set.addRange('0', '9')
			default:
				o.set.addRange('a', 'z')
				o.set.addRange('0', '9')
			}
		case rex.KindExcl:
			if !utf8.ValidString(t.Excl) {
				return nil, false
			}
			litBytes += len(t.Excl)
			o = op{kind: opExcl}
			if t.Excl == "" {
				// "[^]+" opens a class with a literal ']': what it means
				// depends on the tokens after it.
				supported = false
			}
			for j := 0; j < len(t.Excl); j++ {
				b := t.Excl[j]
				switch {
				case b >= utf8.RuneSelf:
					// A non-ASCII excluded character is rune-level class
					// semantics a byte set cannot express.
					supported = false
				case b == '\\' || b == '[' || b == ']':
					// Class syntax, not a class member, once rendered.
					supported = false
				}
				o.set.add(b)
			}
		case rex.KindDotPlus:
			o = op{kind: opExcl}
			o.set.add('\n')
		case rex.KindAlt:
			alts := t.Alts
			for _, a := range alts {
				if !utf8.ValidString(a) {
					return nil, false
				}
				litBytes += len(a) + 1
			}
			if len(alts) == 0 {
				alts = []string{""} // "(?:)" matches the empty string
			}
			o = op{kind: opAlt, alts: alts, opt: t.Opt}
		default:
			supported = false
		}
		p.ops = append(p.ops, o)
	}
	p.oracle = !supported
	p.finalize()
	if !p.det || litBytes > stdlibGateLen {
		re, err := r.Compile()
		if err != nil {
			return nil, false
		}
		if !p.det {
			p.re = re
		}
	}
	return p, true
}

// finalize derives every field the matcher dispatch needs from the
// fundamental op sequence (kind, lit, set, alts, opt, capture) and the
// oracle flag: per-op minW/excl1/isDigit/fixedTail, the program's
// minLen and head/tail literals, and the det classification. It is the
// single derivation path shared by compileProgram and the wire decoder
// (EngineFromWire), so a deserialized program behaves bit-for-bit like
// a freshly compiled one.
func (p *program) finalize() {
	p.minLen = 0
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
			o.minW = len(o.lit)
		case opSet, opExcl:
			o.minW = 1
		case opAlt:
			o.minW = 0
			if !o.opt && len(o.alts) > 0 {
				o.minW = len(o.alts[0])
				for _, a := range o.alts[1:] {
					if len(a) < o.minW {
						o.minW = len(a)
					}
				}
			}
		}
		p.minLen += o.minW
	}
	var digits asciiSet
	digits.addRange('0', '9')
	for i := range p.ops {
		o := &p.ops[i]
		o.excl1, o.isExcl1, o.isDigit = 0, false, false
		if o.kind == opExcl && bits.OnesCount64(o.set[0])+bits.OnesCount64(o.set[1]) == 1 {
			if o.set[0] != 0 {
				o.excl1 = byte(bits.TrailingZeros64(o.set[0]))
			} else {
				o.excl1 = byte(64 + bits.TrailingZeros64(o.set[1]))
			}
			o.isExcl1 = true
		}
		if o.kind == opSet && o.set == digits {
			o.isDigit = true
		}
	}
	// fixedTail: scan from the end while only literals remain.
	run, allLit := 0, true
	for i := len(p.ops) - 1; i >= 0; i-- {
		if allLit {
			p.ops[i].fixedTail = run
		} else {
			p.ops[i].fixedTail = -1
		}
		if p.ops[i].kind == opLit {
			run += len(p.ops[i].lit)
		} else {
			allLit = false
		}
	}
	p.headLit, p.tailLit = "", ""
	if n := len(p.ops); n > 0 {
		if p.ops[0].kind == opLit {
			p.headLit = p.ops[0].lit
		}
		if p.ops[n-1].kind == opLit {
			p.tailLit = p.ops[n-1].lit
		}
	}
	if p.oracle {
		// The op sequence need not be the stdlib's parse of the rendered
		// regex (an exclusion set holding ']' renders as a different
		// class), so no prefilter derived from it may reject a host.
		p.minLen, p.headLit, p.tailLit = 0, "", ""
	}
	p.det = !p.oracle && p.deterministic()
}

// deterministic reports whether every quantified op in the program has
// exactly one viable end position in any attempt, making backtracking
// impossible:
//
//   - a greedy run with a fixed-width literal tail (fixedTail >= 0) has
//     its end forced by the end anchor;
//   - a greedy run followed by a literal whose first byte cannot extend
//     the run can only stop at its maximal extent — any shorter end
//     puts a run-extending byte where the literal's first byte must be;
//   - an alternation with a single required branch is a literal.
func (p *program) deterministic() bool {
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
		case opAlt:
			if len(o.alts) != 1 || o.opt {
				return false
			}
		case opSet, opExcl:
			if o.fixedTail >= 0 {
				continue
			}
			if i+1 >= len(p.ops) || p.ops[i+1].kind != opLit || len(p.ops[i+1].lit) == 0 {
				return false
			}
			nb := p.ops[i+1].lit[0]
			// opSet runs over bytes in the set; opExcl runs over bytes
			// outside it. Either way nb must stop the run.
			if o.kind == opSet && o.set.has(nb) {
				return false
			}
			if o.kind == opExcl && !o.set.has(nb) {
				return false
			}
		}
	}
	return true
}

// matchDet matches ops against host[pos:] without backtracking — valid
// only for det programs, where each quantified op has a single viable
// end. It replicates the VM's leftmost-first answer exactly: for every
// op the end position it picks is the only one whose continuation can
// succeed.
func (p *program) matchDet(host string, pos int) (int, int, bool) {
	var capS, capE int
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opLit:
			switch len(o.lit) {
			case 1:
				if pos >= len(host) || host[pos] != o.lit[0] {
					return 0, 0, false
				}
				pos++
				continue
			case 2:
				if pos+2 > len(host) || host[pos] != o.lit[0] || host[pos+1] != o.lit[1] {
					return 0, 0, false
				}
				pos += 2
				continue
			}
			end := pos + len(o.lit)
			if end > len(host) || host[pos:end] != o.lit {
				return 0, 0, false
			}
			pos = end
		case opAlt: // det: exactly one required branch
			a := o.alts[0]
			end := pos + len(a)
			if end > len(host) || host[pos:end] != a {
				return 0, 0, false
			}
			pos = end
		case opSet:
			max := pos
			if o.isDigit {
				for max < len(host) && uint(host[max])-'0' < 10 {
					max++
				}
			} else {
				for max < len(host) && o.set.has(host[max]) {
					max++
				}
			}
			end := max
			if ft := o.fixedTail; ft >= 0 {
				end = len(host) - ft
				if end > max {
					return 0, 0, false
				}
			}
			if end <= pos {
				return 0, 0, false
			}
			if o.capture {
				capS, capE = pos, end
			}
			pos = end
		case opExcl:
			var end int
			if o.isExcl1 {
				max := len(host)
				if j := strings.IndexByte(host[pos:], o.excl1); j >= 0 {
					max = pos + j
				}
				end = max
				if ft := o.fixedTail; ft >= 0 {
					end = len(host) - ft
					if end > max {
						return 0, 0, false
					}
					// end == max stops at an ASCII byte or the end of host,
					// both rune boundaries; a shorter forced end must be
					// checked.
					if end < max && !runeBoundaryFrom(host, pos, end) {
						return 0, 0, false
					}
				}
			} else {
				max, sawMulti := pos, false
				for max < len(host) {
					b := host[max]
					if b < utf8.RuneSelf {
						if o.set.has(b) {
							break
						}
						max++
					} else {
						_, w := utf8.DecodeRuneInString(host[max:])
						max += w
						sawMulti = sawMulti || w > 1
					}
				}
				end = max
				if ft := o.fixedTail; ft >= 0 {
					end = len(host) - ft
					if end > max {
						return 0, 0, false
					}
					if sawMulti && !runeBoundaryFrom(host, pos, end) {
						return 0, 0, false
					}
				}
			}
			if end <= pos {
				return 0, 0, false
			}
			if o.capture {
				capS, capE = pos, end
			}
			pos = end
		}
	}
	return capS, capE, pos == len(host)
}

// stepBudget bounds backtracking work per (host, start) attempt set.
// Learned conventions use a handful of steps; only adversarial token
// sequences (stacked exclusion runs that all fail late) approach the
// budget, and those fall back to the stdlib engine so the answer is
// unchanged.
const stepBudget = 1 << 14

// vm is per-match state. It is passed by pointer through the recursion
// but never stored, so it stays on MatchString's stack.
type vm struct {
	host       string
	steps      int
	capS, capE int
	// spans, when non-nil, receives every op's extent on the successful
	// path (one entry per op). The serving path leaves it nil.
	spans [][2]int
}

// match runs the program against host, returning the capture span.
func (p *program) match(host string) (capS, capE int, ok bool) {
	if len(host) < p.minLen {
		return 0, 0, false
	}
	if p.det && !p.leftOpen {
		// The op sequence itself verifies the head and tail literals at
		// their only viable positions; prefilters would duplicate work.
		return p.matchDet(host, 0)
	}
	if p.tailLit != "" && !strings.HasSuffix(host, p.tailLit) {
		return 0, 0, false
	}
	if p.oracle {
		return p.oracleMatch(host)
	}
	if p.det {
		return p.matchDetAll(host)
	}
	v := vm{host: host, steps: stepBudget}
	if p.search(&v) {
		return v.capS, v.capE, true
	}
	if v.steps < 0 {
		return p.oracleMatch(host)
	}
	return 0, 0, false
}

// search runs the VM over v.host from each viable start offset and
// reports whether one matched. A start-anchored program tries offset 0
// only; a left-open one takes the leftmost start that matches, exactly
// as the stdlib resolves an unanchored pattern, and when its first op is
// a literal only that literal's occurrences are viable starts. A false
// result with v.steps < 0 means the step budget ran out and the answer
// is the stdlib's.
func (p *program) search(v *vm) bool {
	host := v.host
	if !p.leftOpen {
		if p.headLit != "" && !strings.HasPrefix(host, p.headLit) {
			return false
		}
		return v.run(p, 0, 0)
	}
	limit := len(host) - p.minLen
	for s := 0; s <= limit; s++ {
		if p.headLit != "" {
			i := strings.Index(host[s:], p.headLit)
			if i < 0 || s+i > limit {
				return false
			}
			s += i
		}
		if v.run(p, 0, s) {
			return true
		}
		if v.steps < 0 {
			return false
		}
	}
	return false
}

// matchDetAll is the start-offset search for left-open det programs:
// the same leftmost-first start scan as the VM path, with each attempt
// running the linear matchDet. det attempts cannot exhaust a step
// budget, so there is no mid-match oracle fallback to consider.
func (p *program) matchDetAll(host string) (int, int, bool) {
	limit := len(host) - p.minLen
	if p.headLit != "" {
		for s := 0; s <= limit; {
			i := strings.Index(host[s:], p.headLit)
			if i < 0 {
				return 0, 0, false
			}
			s += i
			if s > limit {
				return 0, 0, false
			}
			if cs, ce, ok := p.matchDet(host, s); ok {
				return cs, ce, true
			}
			s++
		}
		return 0, 0, false
	}
	for s := 0; s <= limit; s++ {
		if cs, ce, ok := p.matchDet(host, s); ok {
			return cs, ce, true
		}
	}
	return 0, 0, false
}

// oracleMatch answers with the stdlib compilation of the same regex.
func (p *program) oracleMatch(host string) (int, int, bool) {
	m := p.re.FindStringSubmatchIndex(host)
	if len(m) < 4 || m[2] < 0 { // no match, or the capture group did not survive rendering
		return 0, 0, false
	}
	return m[2], m[3], true
}

// run matches ops[i:] at pos, replicating a leftmost-first backtracking
// search: greedy quantifiers try their longest extent first, alternation
// alternatives are tried in rendered order with the optional empty match
// last. The whole host must be consumed (every regex is end-anchored).
func (v *vm) run(p *program, i, pos int) bool {
	v.steps--
	if v.steps < 0 {
		return false
	}
	if i == len(p.ops) {
		return pos == len(v.host)
	}
	o := &p.ops[i]
	switch o.kind {
	case opLit:
		end := pos + len(o.lit)
		if end > len(v.host) || v.host[pos:end] != o.lit {
			return false
		}
		return v.run(p, i+1, end) && v.hit(o, i, pos, end)

	case opAlt:
		for _, a := range o.alts {
			end := pos + len(a)
			if end <= len(v.host) && v.host[pos:end] == a {
				if v.run(p, i+1, end) {
					return v.hit(o, i, pos, end)
				}
				if v.steps < 0 {
					return false
				}
			}
		}
		if o.opt {
			return v.run(p, i+1, pos) && v.hit(o, i, pos, pos)
		}
		return false

	case opSet:
		max := pos
		for max < len(v.host) && o.set.has(v.host[max]) {
			max++
		}
		if max == pos {
			return false
		}
		if ft := o.fixedTail; ft >= 0 {
			// Everything after this op is literal: the end is forced.
			end := len(v.host) - ft
			if end <= pos || end > max {
				return false
			}
			return v.run(p, i+1, end) && v.hit(o, i, pos, end)
		}
		for end := max; end > pos; end-- {
			if v.run(p, i+1, end) {
				return v.hit(o, i, pos, end)
			}
			if v.steps < 0 {
				return false
			}
		}
		return false

	case opExcl:
		// Greedy rune run: ASCII bytes stop at the excluded set, non-ASCII
		// runes always match (the excluded characters are ASCII), and each
		// invalid byte decodes as one-byte U+FFFD, matching the stdlib's
		// treatment.
		max, sawMulti := pos, false
		for max < len(v.host) {
			b := v.host[max]
			if b < utf8.RuneSelf {
				if o.set.has(b) {
					break
				}
				max++
			} else {
				_, w := utf8.DecodeRuneInString(v.host[max:])
				max += w
				sawMulti = sawMulti || w > 1
			}
		}
		if max == pos {
			return false
		}
		if ft := o.fixedTail; ft >= 0 {
			end := len(v.host) - ft
			if end <= pos || end > max {
				return false
			}
			if sawMulti && !runeBoundaryFrom(v.host, pos, end) {
				return false
			}
			return v.run(p, i+1, end) && v.hit(o, i, pos, end)
		}
		for end := max; end > pos; {
			if v.run(p, i+1, end) {
				return v.hit(o, i, pos, end)
			}
			if v.steps < 0 {
				return false
			}
			// Step back one rune. DecodeLastRuneInString mirrors forward
			// decoding boundaries, including one-byte steps over invalid
			// sequences.
			if v.host[end-1] < utf8.RuneSelf {
				end--
			} else {
				_, w := utf8.DecodeLastRuneInString(v.host[:end])
				end -= w
			}
		}
		return false
	}
	return false
}

// hit records op i's extent [s, e) on the successful path — the capture
// span when o is the capture op, and the op's span when spans are
// recorded. It always reports true so callers can chain it after a
// successful tail match.
func (v *vm) hit(o *op, i, s, e int) bool {
	if o.capture {
		v.capS, v.capE = s, e
	}
	if v.spans != nil {
		v.spans[i] = [2]int{s, e}
	}
	return true
}

// runeBoundaryFrom reports whether end lies on a rune boundary when
// decoding forward from start.
func runeBoundaryFrom(host string, start, end int) bool {
	for start < end {
		if host[start] < utf8.RuneSelf {
			start++
		} else {
			_, w := utf8.DecodeRuneInString(host[start:])
			start += w
		}
	}
	return start == end
}
