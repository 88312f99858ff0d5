package cluster

// Two-phase corpus rollout, coordinator side. The invariant the
// protocol buys: within one rollout epoch, no client ever observes a
// generation that was not committed cluster-wide. The coordinator
// drives every node of the current view through three rounds:
//
//	prepare  — ship the corpus bytes to every node's side buffer. Each
//	           ack carries the prepared fingerprint (X-Hoiho-Corpus)
//	           and the serving generation it would supersede
//	           (X-Hoiho-Generation). All prepared fingerprints must
//	           agree — the first ack is the reference, because nodes
//	           running a -classes filter fingerprint the retained
//	           subset, which the coordinator cannot precompute.
//	validate — every node re-acks the same fingerprint and an unmoved
//	           serving generation. A node that lost its side buffer,
//	           reloaded mid-epoch, or died since prepare nacks here.
//	commit   — every node publishes, pinned to the agreed fingerprint.
//
// Any nack or timeout in prepare/validate aborts the epoch: every side
// buffer is dropped and serving state is untouched. A partial commit —
// the one window where some nodes have published — is repaired by
// rolling the committed nodes back through the nodes' existing
// /-/rollback path, restoring the pre-epoch corpus everywhere.
//
// The protocol is strictly one epoch at a time (adminMu), and the
// member set is pinned to the view loaded at epoch start, so a
// concurrent join/leave cannot split a phase across two rings.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hoiho/internal/corpusbin"
	"hoiho/internal/extract"
	"hoiho/internal/faultinject"
)

// maxRolloutBodyBytes caps a corpus accepted by POST /-/rollout,
// matching the node-side prepare cap.
const maxRolloutBodyBytes = 64 << 20

// RolloutResult reports a committed epoch: the cluster-wide fingerprint
// and each node's new serving generation.
type RolloutResult struct {
	Fingerprint string       `json:"fingerprint"`
	Nodes       []NodeCommit `json:"nodes"`
}

// NodeCommit is one node's post-commit identity.
type NodeCommit struct {
	Node       string `json:"node"`
	Generation uint64 `json:"generation"`
}

// phaseAck is one node's answer to one rollout phase.
type phaseAck struct {
	node string
	fp   string
	gen  uint64
	err  error
}

// Rollout drives one two-phase corpus swap across the whole cluster.
// data is the corpus to ship (HBC or JSON — nodes sniff). holdValidate,
// when positive, pauses between prepare and validate; it exists so
// chaos tests and the CI smoke script can widen the window in which to
// kill a node mid-epoch. On any failure the epoch is aborted (committed
// nodes rolled back) and the returned RolloutError names the phase and
// node that broke it.
func (rt *Router) Rollout(ctx context.Context, data []byte, holdValidate time.Duration) (*RolloutResult, error) {
	if !rt.adminMu.TryLock() {
		return nil, ErrRolloutInProgress
	}
	defer rt.adminMu.Unlock()
	return rt.rolloutLocked(ctx, data, holdValidate)
}

// rolloutLocked is the epoch body, factored out so journal resume can
// roll forward while already holding adminMu.
func (rt *Router) rolloutLocked(ctx context.Context, data []byte, holdValidate time.Duration) (*RolloutResult, error) {
	v := rt.view.Load()
	members := v.members
	if len(members) == 0 {
		return nil, ErrNoMembers
	}

	plan, err := rt.planEpoch(ctx, members, data)
	if err != nil {
		return nil, err
	}
	if err := rt.journalPhase(ctx, plan, phasePrepare, ""); err != nil {
		return nil, err
	}
	epochQ := "epoch=" + strconv.FormatUint(plan.epoch, 10)

	// Phase 1: prepare. Ship each node its planned payload — the HBD
	// patch when the node's live fingerprint matched the delta base at
	// planning time, the full corpus otherwise. A node that nacks its
	// delta with a base mismatch (it diverged between planning and
	// prepare, or its filter makes its fingerprint incomparable) is
	// retried immediately with the full corpus; only a full-corpus
	// failure aborts the epoch. All prepared fingerprints must agree.
	preps := rt.phaseFanout(ctx, "prepare", members, func(pctx context.Context, m *member) (string, uint64, error) {
		body := plan.full
		if plan.useDelta[m.name] {
			body = plan.delta
		}
		fp, gen, err := rt.rolloutPost(pctx, "prepare", m, "/-/rollout/prepare", epochQ, body)
		if err != nil && plan.useDelta[m.name] && errors.Is(err, ErrBaseMismatchNack) {
			rt.logf("rollout: %s nacked the delta base; resending the full corpus", m.name)
			return rt.rolloutPost(pctx, "prepare", m, "/-/rollout/prepare", epochQ, plan.full)
		}
		return fp, gen, err
	})
	var fp string
	for _, a := range preps {
		if a.err != nil {
			rt.abortEpochJournaled(ctx, plan, members, "prepare", a.node, a.err)
			return nil, &RolloutError{Phase: "prepare", Node: a.node, Err: a.err}
		}
		if fp == "" {
			fp = a.fp
		} else if a.fp != fp {
			err := fmt.Errorf("cluster: prepared fingerprint %s disagrees with reference %s (mismatched corpus or class filters across nodes)", a.fp, fp)
			rt.abortEpochJournaled(ctx, plan, members, "prepare", a.node, err)
			return nil, &RolloutError{Phase: "prepare", Node: a.node, Err: err}
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseValidate, fp); err != nil {
		rt.abortEpochJournaled(ctx, plan, members, "prepare", "", err)
		return nil, &RolloutError{Phase: "prepare", Err: err}
	}

	// Optional hold between phases (chaos/test hook), bounded by ctx.
	if holdValidate > 0 {
		t := time.NewTimer(holdValidate)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			rt.abortEpochJournaled(ctx, plan, members, "validate", "", ctx.Err())
			return nil, &RolloutError{Phase: "validate", Err: ctx.Err()}
		}
	}

	// Phase 2: validate. Every node must still hold the agreed corpus
	// over the generation it acked at prepare.
	vals := rt.phaseFanout(ctx, "validate", members, func(pctx context.Context, m *member) (string, uint64, error) {
		return rt.rolloutPost(pctx, "validate", m, "/-/rollout/validate", "", nil)
	})
	for i, a := range vals {
		err := a.err
		if err == nil && a.fp != fp {
			err = fmt.Errorf("cluster: validate acked fingerprint %s, epoch agreed on %s", a.fp, fp)
		}
		if err == nil && a.gen != preps[i].gen {
			err = fmt.Errorf("cluster: serving generation moved from %d to %d during the epoch", preps[i].gen, a.gen)
		}
		if err != nil {
			rt.abortEpochJournaled(ctx, plan, members, "validate", a.node, err)
			return nil, &RolloutError{Phase: "validate", Node: a.node, Err: err}
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseCommit, fp); err != nil {
		rt.abortEpochJournaled(ctx, plan, members, "validate", "", err)
		return nil, &RolloutError{Phase: "validate", Err: err}
	}

	// Phase 3: commit, pinned to the agreed fingerprint. A partial
	// commit is repaired: committed nodes roll back, the rest abort.
	coms := rt.phaseFanout(ctx, "commit", members, func(pctx context.Context, m *member) (string, uint64, error) {
		return rt.rolloutPost(pctx, "commit", m, "/-/rollout/commit", "fingerprint="+fp, nil)
	})
	var commitErr *RolloutError
	for _, a := range coms {
		if a.err != nil {
			commitErr = &RolloutError{Phase: "commit", Node: a.node, Err: a.err}
			break
		}
	}
	if commitErr != nil {
		for i, a := range coms {
			m := members[i]
			if a.err == nil {
				if err := rt.rollbackNode(ctx, m); err != nil {
					rt.logf("rollout: rollback of committed node %s failed: %v", m.name, err)
				}
			} else {
				rt.abortNode(ctx, m)
			}
		}
		rt.stats.aborted.Add(1)
		rt.markAborted(ctx, plan)
		rt.logf("rollout: epoch aborted at commit: %v", commitErr)
		return nil, commitErr
	}

	// The epoch is live cluster-wide; rotate the journal's corpus files
	// and make the outcome durable. Failures past this point are logged,
	// never surfaced as a rollout error — returning one would claim the
	// fleet is not on the target when it is. A journal left at commit
	// resumes as a harmless roll-forward onto the corpus already
	// serving.
	if rt.journal != nil {
		if err := rt.journal.promoteEpoch(); err != nil {
			rt.logf("rollout: epoch %d corpus rotation: %v", plan.epoch, err)
		}
	}
	if err := rt.journalPhase(ctx, plan, phaseCommitted, fp); err != nil {
		rt.logf("rollout: epoch %d: %v", plan.epoch, err)
	}

	res := &RolloutResult{Fingerprint: fp, Nodes: make([]NodeCommit, len(coms))}
	for i, a := range coms {
		res.Nodes[i] = NodeCommit{Node: a.node, Generation: a.gen}
	}
	rt.stats.rollouts.Add(1)
	rt.logf("rollout: epoch %d committed %s on %d nodes (%d via delta)", plan.epoch, fp, len(coms), len(plan.useDelta))
	return res, nil
}

// epochPlan is one rollout epoch's payload plan: the full target corpus
// (always shipped on the fallback path and persisted at commit), the
// optional HBD patch against the journaled committed corpus, and which
// members were planned to receive it.
type epochPlan struct {
	epoch    uint64
	targetFP string // coordinator-side fingerprint of the unfiltered target
	full     []byte
	delta    []byte // nil when no delta applies this epoch
	useDelta map[string]bool
	nodes    []journalNode
}

// planEpoch allocates the epoch number and decides per-node payloads.
// Without a journal the plan is the legacy one — ship the operator's
// bytes to everyone (an HBD patch is refused: there is no durable base
// to resolve it against). With a journal the target is normalized to
// canonical HBC bytes (resolving an HBD patch against the committed
// corpus when that is what the operator posted), persisted as the
// epoch corpus, and diffed against the committed base; members whose
// reported live fingerprint equals the base's get the patch.
func (rt *Router) planEpoch(ctx context.Context, members []*member, data []byte) (*epochPlan, error) {
	plan := &epochPlan{
		epoch:    rt.epoch.Add(1),
		full:     data,
		useDelta: make(map[string]bool),
		nodes:    make([]journalNode, len(members)),
	}
	for i, m := range members {
		plan.nodes[i] = journalNode{Node: m.name}
	}
	if rt.journal == nil {
		if corpusbin.IsHBD(data) {
			return nil, fmt.Errorf("cluster: rollout: an HBD delta needs the journaled committed corpus as its base; start the coordinator with a journal path")
		}
		return plan, nil
	}

	committed, err := rt.journal.readCommitted()
	if err != nil {
		return nil, err
	}
	var base *extract.Corpus
	if committed != nil {
		if base, err = extract.Load(bytes.NewReader(committed)); err != nil {
			// A damaged committed corpus must not block rollouts; it
			// only costs this epoch its deltas.
			rt.logf("rollout: committed corpus unreadable, full sends this epoch: %v", err)
			base = nil
		}
	}
	var target *extract.Corpus
	if corpusbin.IsHBD(data) {
		if base == nil {
			return nil, fmt.Errorf("cluster: rollout: HBD delta posted but the journal holds no committed corpus to patch")
		}
		applied, full, err := extract.ApplyDelta(base, data)
		if err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		target, plan.full, plan.delta = applied, full, data
	} else {
		if target, err = extract.Load(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("cluster: rollout: target corpus does not load: %w", err)
		}
		var buf bytes.Buffer
		if err := target.SaveBinary(&buf); err != nil {
			return nil, fmt.Errorf("cluster: rollout: %w", err)
		}
		plan.full = buf.Bytes()
		if base != nil && base.FingerprintString() != target.FingerprintString() {
			var db bytes.Buffer
			if err := extract.Diff(base, target, &db); err != nil {
				rt.logf("rollout: diff against committed base failed, full sends this epoch: %v", err)
			} else {
				plan.delta = db.Bytes()
			}
		}
	}
	plan.targetFP = target.FingerprintString()

	if plan.delta != nil {
		baseFP := base.FingerprintString()
		fps := rt.memberFingerprints(ctx, members)
		for i, m := range members {
			if fps[i] == baseFP {
				plan.useDelta[m.name] = true
				plan.nodes[i].Delta = true
			}
		}
		rt.logf("rollout: epoch %d: delta %d bytes vs full %d bytes, %d/%d members eligible",
			plan.epoch, len(plan.delta), len(plan.full), len(plan.useDelta), len(members))
	}
	if err := rt.journal.writeEpochCorpus(plan.full); err != nil {
		return nil, err
	}
	return plan, nil
}

// journalPhase makes the phase about to run durable; a no-op without a
// journal. fp overrides the plan's target fingerprint once the prepare
// acks have agreed on the cluster-wide one.
func (rt *Router) journalPhase(ctx context.Context, plan *epochPlan, phase, fp string) error {
	if rt.journal == nil {
		return nil
	}
	if fp == "" {
		fp = plan.targetFP
	}
	return rt.journal.record(ctx, &journalState{
		Epoch: plan.epoch, TargetFP: fp, Phase: phase, Nodes: plan.nodes,
	})
}

// abortEpochJournaled aborts the epoch on every node and records the
// aborted outcome.
func (rt *Router) abortEpochJournaled(ctx context.Context, plan *epochPlan, members []*member, phase, node string, cause error) {
	rt.abortEpoch(ctx, members, phase, node, cause)
	rt.markAborted(ctx, plan)
}

// markAborted journals the aborted outcome. Best effort: the abort
// itself already succeeded, and an unrecorded abort merely costs a
// redundant abort round on the next resume.
func (rt *Router) markAborted(ctx context.Context, plan *epochPlan) {
	if rt.journal == nil {
		return
	}
	if err := rt.journal.record(ctx, &journalState{
		Epoch: plan.epoch, TargetFP: plan.targetFP, Phase: phaseAborted, Nodes: plan.nodes,
	}); err != nil {
		rt.logf("rollout: journaling abort of epoch %d: %v", plan.epoch, err)
	}
}

// memberFingerprints reads every member's live corpus fingerprint
// concurrently; unreachable members report "" and fall onto the
// full-corpus path.
func (rt *Router) memberFingerprints(ctx context.Context, members []*member) []string {
	fps := make([]string, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			fps[i], _, _ = rt.nodeStatus(ctx, m)
		}(i, m)
	}
	wg.Wait()
	return fps
}

// nodeStatus asks one node's /-/status for its live fingerprint and
// serving generation, bounded by ProbeTimeout.
func (rt *Router) nodeStatus(ctx context.Context, m *member) (fp string, gen uint64, err error) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	rep, err := m.roundTrip(pctx, http.MethodGet, "/-/status", "", nil, 1<<20)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: status of %s: %w", m.name, err)
	}
	if rep.status != http.StatusOK {
		return "", 0, fmt.Errorf("cluster: status of %s: %d", m.name, rep.status)
	}
	var st struct {
		Fingerprint string `json:"fingerprint"`
		Generation  uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return "", 0, fmt.Errorf("cluster: status of %s: %w", m.name, err)
	}
	return st.Fingerprint, st.Generation, nil
}

// phaseFanout runs one phase against every member concurrently, each
// call bounded by RolloutPhaseTimeout, and collects the acks in member
// order.
func (rt *Router) phaseFanout(ctx context.Context, phase string, members []*member, call func(context.Context, *member) (string, uint64, error)) []phaseAck {
	acks := make([]phaseAck, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
			defer cancel()
			fp, gen, err := call(pctx, m)
			acks[i] = phaseAck{node: m.name, fp: fp, gen: gen, err: err}
		}(i, m)
	}
	wg.Wait()
	return acks
}

// rolloutPost performs one phase call against one node and decodes the
// ack headers. The faultinject hook (keyed "<phase>:<node>") lets chaos
// tests break specific nodes in specific phases deterministically.
func (rt *Router) rolloutPost(ctx context.Context, phase string, m *member, path, rawQuery string, body []byte) (string, uint64, error) {
	if err := faultinject.Fire(ctx, faultinject.StageClusterRollout, phase+":"+m.name); err != nil {
		return "", 0, err
	}
	rep, err := m.roundTrip(ctx, http.MethodPost, path, rawQuery, body, maxAckBytes)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: rollout %s call: %w", phase, err)
	}
	if rep.status != http.StatusOK {
		if rep.header.Get("X-Hoiho-Rollout-Nack") == "base-mismatch" {
			return "", 0, fmt.Errorf("cluster: rollout %s: %w: %s", phase, ErrBaseMismatchNack, bytes.TrimSpace(rep.body))
		}
		return "", 0, fmt.Errorf("cluster: rollout %s nacked with %d: %s", phase, rep.status, bytes.TrimSpace(rep.body))
	}
	fp := rep.header.Get("X-Hoiho-Corpus")
	if fp == "" {
		return "", 0, fmt.Errorf("cluster: rollout %s ack carries no X-Hoiho-Corpus proof", phase)
	}
	gen, err := strconv.ParseUint(rep.header.Get("X-Hoiho-Generation"), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: rollout %s ack generation: %w", phase, err)
	}
	return fp, gen, nil
}

// abortEpoch drops every node's side buffer and accounts the aborted
// epoch. Best effort by design: an abort that cannot reach a node
// leaves only an inert side buffer behind (it never serves, and the
// next prepare overwrites it).
func (rt *Router) abortEpoch(ctx context.Context, members []*member, phase, node string, cause error) {
	for _, m := range members {
		rt.abortNode(ctx, m)
	}
	rt.stats.aborted.Add(1)
	rt.logf("rollout: epoch aborted in %s at %s: %v", phase, node, cause)
}

// abortNode drops one node's side buffer. No faultinject hook here: the
// abort path is the protocol's safety net and must stay maximally
// reliable even under injected chaos.
func (rt *Router) abortNode(ctx context.Context, m *member) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
	defer cancel()
	// Best effort (see abortEpoch).
	_, _ = m.roundTrip(pctx, http.MethodPost, "/-/rollout/abort", "", nil, maxAckBytes)
}

// rollbackNode undoes a committed node through the existing single-node
// rollback path, restoring the pre-epoch corpus.
func (rt *Router) rollbackNode(ctx context.Context, m *member) error {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.RolloutPhaseTimeout)
	defer cancel()
	rep, err := m.roundTrip(pctx, http.MethodPost, "/-/rollback", "", nil, maxAckBytes)
	if err != nil {
		return fmt.Errorf("cluster: rollback call: %w", err)
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("cluster: rollback refused with %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	return nil
}

// handleRollout is the operator entry point: the corpus arrives in the
// request body, an optional ?hold-validate=DURATION widens the
// prepare→validate window (chaos/CI hook), and the response is the
// committed RolloutResult or the error that aborted the epoch.
func (rt *Router) handleRollout(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRolloutBodyBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: reading rollout body: %v", err), http.StatusBadRequest)
		return
	}
	if int64(len(data)) > maxRolloutBodyBytes {
		http.Error(w, fmt.Sprintf("cluster: rollout corpus exceeds %d-byte cap", maxRolloutBodyBytes), http.StatusRequestEntityTooLarge)
		return
	}
	var hold time.Duration
	if hv := r.URL.Query().Get("hold-validate"); hv != "" {
		hold, err = time.ParseDuration(hv)
		if err != nil {
			http.Error(w, fmt.Sprintf("cluster: bad hold-validate: %v", err), http.StatusBadRequest)
			return
		}
	}
	res, err := rt.Rollout(r.Context(), data, hold)
	if err != nil {
		code := http.StatusBadGateway
		if err == ErrRolloutInProgress {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
