package core

import (
	"context"
	"math/bits"
	"sort"

	"hoiho/internal/asn"
	"hoiho/internal/rex"
)

// Outcome classifies one hostname under one regex or NC (§3.1).
type Outcome uint8

const (
	// OutcomeNone: the regex did not match and the hostname has no
	// apparent ASN; the hostname does not affect the score.
	OutcomeNone Outcome = iota
	// OutcomeTP: the extracted number is congruent with the training ASN.
	OutcomeTP
	// OutcomeFP: the regex extracted a different number than the training
	// ASN, or the extraction is part of an embedded IP address.
	OutcomeFP
	// OutcomeFN: the regex did not match but the hostname contains an
	// apparent ASN.
	OutcomeFN
)

func (o Outcome) String() string {
	switch o {
	case OutcomeTP:
		return "TP"
	case OutcomeFP:
		return "FP"
	case OutcomeFN:
		return "FN"
	default:
		return "-"
	}
}

// Extraction records how one item fared under evaluation.
type Extraction struct {
	Item     Item
	Outcome  Outcome
	ASN      string // extracted digits ("" when no match)
	RegexIdx int    // index of the matching regex within the NC (-1 if none)
}

// Eval aggregates per-hostname outcomes for a regex or regex set.
type Eval struct {
	TP, FP, FN int
	// Matches counts hostnames the regex(es) matched (TP+FP).
	Matches int
	// UniqueTP is the number of distinct extracted values among TPs — the
	// quantity §4's good/promising classification thresholds ("at least
	// three unique ASNs congruent with training ASNs").
	UniqueTP int
	// UniqueExtract is the number of distinct extracted values over all
	// matches; 1 marks a fig. 2-style "single" convention that labels one
	// organization's ASN everywhere.
	UniqueExtract int
}

// ATP is the paper's ranking metric: TP − (FP + FN) (§3.1).
func (e Eval) ATP() int { return e.TP - (e.FP + e.FN) }

// PPV is the positive predictive value TP/(TP+FP); 0 when nothing
// matched.
func (e Eval) PPV() float64 {
	if e.Matches == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.Matches)
}

// evalItem classifies item i against an ordered regex set, returning
// the outcome, the extraction, and the index of the first matching
// regex (-1 when none matched).
func (s *Set) evalItem(i int, regexes []*rex.Regex) (Outcome, string, int) {
	for ri, r := range regexes {
		ext, start, end, ok := r.Extract(s.ar.full[i])
		if !ok {
			continue
		}
		if inSpans(s.ar.spansOf(i), start, end) {
			// Extracted number is part of an embedded IP address (§3.1,
			// figure 3b): always a false positive.
			return OutcomeFP, ext, ri
		}
		if congruentDigits(ext, s.ar.digits[i], !s.opts.DisableTypoCredit) {
			return OutcomeTP, ext, ri
		}
		return OutcomeFP, ext, ri
	}
	if s.ar.apparent[i] {
		return OutcomeFN, "", -1
	}
	return OutcomeNone, "", -1
}

// Evaluate scores an ordered regex set against the training set. Items
// are matched by the first regex in set order (§3.5).
//
// This is the naive reference implementation: it re-executes every
// regex against every item on each call. The learning pipeline instead
// evaluates through the memoized match matrix (matrix.go), which is
// proven bit-for-bit equivalent against this oracle by
// TestMatrixMatchesOracle.
func (s *Set) Evaluate(regexes ...*rex.Regex) Eval {
	var e Eval
	uniqueTP := make(map[string]struct{})
	uniqueAll := make(map[string]struct{})
	for i := 0; i < s.ar.len(); i++ {
		out, ext, _ := s.evalItem(i, regexes)
		switch out {
		case OutcomeTP:
			e.TP++
			e.Matches++
			uniqueTP[ext] = struct{}{}
			uniqueAll[ext] = struct{}{}
		case OutcomeFP:
			e.FP++
			e.Matches++
			uniqueAll[ext] = struct{}{}
		case OutcomeFN:
			e.FN++
		}
	}
	e.UniqueTP = len(uniqueTP)
	e.UniqueExtract = len(uniqueAll)
	return e
}

// EvaluateDetailed returns the evaluation together with per-item
// extractions, in training order.
func (s *Set) EvaluateDetailed(regexes ...*rex.Regex) (Eval, []Extraction) {
	var e Eval
	uniqueTP := make(map[string]struct{})
	uniqueAll := make(map[string]struct{})
	exts := make([]Extraction, 0, s.ar.len())
	for i := 0; i < s.ar.len(); i++ {
		out, ext, ri := s.evalItem(i, regexes)
		exts = append(exts, Extraction{Item: s.ar.items[i], Outcome: out, ASN: ext, RegexIdx: ri})
		switch out {
		case OutcomeTP:
			e.TP++
			e.Matches++
			uniqueTP[ext] = struct{}{}
			uniqueAll[ext] = struct{}{}
		case OutcomeFP:
			e.FP++
			e.Matches++
			uniqueAll[ext] = struct{}{}
		case OutcomeFN:
			e.FN++
		}
	}
	e.UniqueTP = len(uniqueTP)
	e.UniqueExtract = len(uniqueAll)
	return e, exts
}

// scored pairs a regex with its evaluation for ranking.
type scored struct {
	regex *rex.Regex
	eval  Eval
}

// specificity orders equally-scored regexes: more constrained components
// rank higher, so that (as in figure 4) the character-class regex #6 is
// preferred to the exclusion-class regex #5 when their ATP ties.
func specificity(r *rex.Regex) int {
	score := 0
	if !r.LeftOpen() {
		score += 2
	}
	for i := 0; i < r.NumTokens(); i++ {
		switch r.Token(i).Kind {
		case rex.KindLit:
			score += 4
		case rex.KindAlt:
			score += 3
		case rex.KindClass:
			score += 3
		case rex.KindExcl:
			score += 2
		case rex.KindCapture:
			score++
		case rex.KindDotPlus:
			// no credit: least specific
		}
	}
	return score
}

// rank orders candidates best-first: by ATP (or PPV under the ablation),
// then TP, then fewer FP, then specificity, then lexicographically for
// determinism.
func (s *Set) rank(cands []scored) {
	byPPV := s.opts.RankByPPV
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if byPPV {
			if a.eval.PPV() != b.eval.PPV() {
				return a.eval.PPV() > b.eval.PPV()
			}
		} else if a.eval.ATP() != b.eval.ATP() {
			return a.eval.ATP() > b.eval.ATP()
		}
		if a.eval.TP != b.eval.TP {
			return a.eval.TP > b.eval.TP
		}
		if a.eval.FP != b.eval.FP {
			return a.eval.FP < b.eval.FP
		}
		sa, sb := specificity(a.regex), specificity(b.regex)
		if sa != sb {
			return sa > sb
		}
		return a.regex.String() < b.regex.String()
	})
}

// uniqueExtractedASNs returns the distinct ASNs extracted as TPs by the
// regex set, sorted. Extractions that are typo-credited parse to the
// extracted (not training) value. Like the learning phases, it reads
// the memoized match matrix: each regex's TP column is walked with
// first-match semantics, so repeated calls cost bit operations plus the
// parse of each distinct TP extraction.
func (s *Set) uniqueExtractedASNs(ctx context.Context, regexes []*rex.Regex) ([]asn.ASN, error) {
	m := s.matrix()
	if err := m.ensure(ctx, regexes); err != nil {
		return nil, err
	}
	n := s.ar.len()
	remaining := newBitset(n)
	remaining.fill(n)
	seen := make(map[asn.ASN]struct{})
	for _, r := range regexes {
		c := m.column(r)
		if c.bad {
			continue
		}
		for w := range remaining {
			newly := c.matched[w] & remaining[w]
			if newly == 0 {
				continue
			}
			remaining[w] &^= newly
			for rest := newly & c.tp[w]; rest != 0; rest &= rest - 1 {
				i := w*64 + bits.TrailingZeros64(rest)
				if a, err := asn.Parse(m.extStrs[c.ext[i]]); err == nil {
					seen[a] = struct{}{}
				}
			}
		}
	}
	out := make([]asn.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
