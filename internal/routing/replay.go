package routing

import (
	"fmt"
	"hash/fnv"
	"net/netip"
)

// Incremental BGP reconvergence works by trajectory replay. A sequential
// (Gauss–Seidel) run is fully determined by the speakers' configurations:
// the same configs always walk the same per-round trajectory of
// (adj-RIB-in, loc-RIB) states. The engine therefore records each run's
// trajectory, and a later run over a mostly-unchanged config set replays
// it: at every round, a speaker whose config is unchanged and whose
// neighbors are all still tracking the recorded trajectory restores its
// recorded round state instead of re-pulling and re-selecting.
//
// Correctness argument (the byte-identity bar): restoration is admitted
// for speaker X at round r only when (1) X is not statically dirty — its
// config, profile, router-id and session set are identical to the recorded
// run's, (2) X has not deviated from the trajectory in an earlier round,
// and (3) none of X's session peers is statically dirty or deviant. Under
// Gauss–Seidel, X's round-r computation reads only its own config and its
// peers' current states — predecessors in the sweep at round r, successors
// at round r-1. By induction those states equal the recorded ones exactly
// when (1)–(3) hold, so the recompute would reproduce the recorded state
// byte for byte; restoring it is a pure memoization. Speakers that fail
// the check recompute in full, and their result is compared against the
// record: a full-identity match (including the LearnedFrom/FromRRClient
// bits the lenient routeEqual ignores) re-adopts the recorded state so
// downstream peers may keep restoring; any difference marks the speaker
// deviant, which poisons restoration for it and its neighbors from then
// on. Perturbed runs never record or replay (the Perturber is stateful),
// and a soft reset discards both the log and the recording.

// BGPReplay is the recorded trajectory of one sequential run: per-speaker
// config signatures and session sets (the static-dirtiness baseline) plus
// the per-round states. All maps and slices inside are shared with the
// engine that produced them and are never mutated after recording — the
// engine replaces adj-RIB-in and loc-RIB maps wholesale each round.
type BGPReplay struct {
	sigs   map[string]uint64
	sess   map[string][]session
	rounds []replayRound
}

// Rounds reports the length of the recorded trajectory.
func (r *BGPReplay) Rounds() int {
	if r == nil {
		return 0
	}
	return len(r.rounds)
}

type replayRound map[string]replayState

// replayState is one speaker's post-processing state at one round.
type replayState struct {
	adjIn   map[netip.Addr][]BGPRoute
	locRIB  map[netip.Prefix]BGPRoute
	seg     uint64
	changed bool
	// churned lists the prefixes whose selection changed this round (the
	// churnDelta list), so a replayed round reproduces the engine's churn
	// counters and changed-at stamps exactly.
	churned []netip.Prefix
}

// advEntry caches one advertise() evaluation: outbound policy is a pure
// function of (route, session), so a route that did not change since the
// last evaluation re-advertises the cached result without re-allocating
// the AS path. Validation uses full identity (routeIdentical), not the
// lenient routeEqual, because advertise() reads FromRRClient and the
// decision process downstream reads LearnedFrom.
type advEntry struct {
	src BGPRoute
	out BGPRoute
	ok  bool
}

// speakerSig fingerprints everything about a speaker that shapes its
// behaviour in a run: the full device config, the vendor profile's
// decision-process switches, and the router-id.
func speakerSig(sp *speaker) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%s|%v|%v|%v|", ConfigSignature(sp.dc), sp.profile.Name,
		sp.profile.UseIGPTieBreak, sp.profile.AlwaysCompareMED, sp.routerID)
	return h.Sum64()
}

// sessionsEqual compares two session sets element-wise (session is
// comparable: no slices or maps inside).
func sessionsEqual(a, b []session) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// routeIdentical is routeEqual plus the fields it deliberately ignores.
// Replay adoption and the advertise cache need full identity: LearnedFrom
// feeds decision steps 7–8 and FromRRClient drives iBGP reflection.
func routeIdentical(a, b BGPRoute) bool {
	return a.LearnedFrom == b.LearnedFrom && a.FromRRClient == b.FromRRClient && routeEqual(a, b)
}

// adjIdentical compares adj-RIB-ins strictly: identical key sets (unlike
// the lenient adjEqual — an empty-but-present peer entry renders into the
// state hash differently from an absent one) and fully identical routes.
func adjIdentical(a, b map[netip.Addr][]BGPRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if !routeIdentical(ra[i], rb[i]) {
				return false
			}
		}
	}
	return true
}

// locRIBIdentical compares selections with full identity.
func locRIBIdentical(a, b map[netip.Prefix]BGPRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for p, ra := range a {
		rb, ok := b[p]
		if !ok || !routeIdentical(ra, rb) {
			return false
		}
	}
	return true
}

// EnableIncremental arms trajectory recording for the coming run and, when
// prev carries a recorded trajectory, replay against it: speakers whose
// fingerprint or session set differs from the recording — or that the
// caller marks dirty (extraDirty, e.g. IGP-changed speakers whose
// next-hop costs moved) — are statically dirty and always recompute.
// Only meaningful in sequential mode; a no-op otherwise. Must be called
// before the run; RunContext discards both log and recording when a
// perturber is installed or the engine has already run.
func (e *BGPEngine) EnableIncremental(prev *BGPReplay, extraDirty map[string]bool) {
	if !e.sequential {
		return
	}
	sigs := make(map[string]uint64, len(e.order))
	sess := make(map[string][]session, len(e.order))
	for _, host := range e.order {
		sp := e.speakers[host]
		sigs[host] = speakerSig(sp)
		sess[host] = sp.sessions
	}
	if prev != nil && len(prev.rounds) > 0 {
		e.replay = prev
		e.staticDirty = make([]bool, len(e.order))
		e.deviant = make([]bool, len(e.order))
		for i, host := range e.order {
			sp := e.speakers[host]
			psig, ok := prev.sigs[host]
			e.staticDirty[i] = extraDirty[host] || !ok || psig != sigs[host] || !sessionsEqual(sp.sessions, prev.sess[host])
		}
	}
	e.record = &BGPReplay{sigs: sigs, sess: sess}
}

// ReplayLog returns the trajectory recorded by the most recent run, or nil
// when nothing was recorded (non-sequential mode, a perturbed run, a soft
// reset, or a continuation run). The caller feeds it to the next engine's
// EnableIncremental.
func (e *BGPEngine) ReplayLog() *BGPReplay { return e.record }

// ChangedSpeakers returns the set of speakers whose final selection
// differs from the replayed trajectory's final state — the speakers whose
// data-plane nodes must be rebuilt. nil means "treat every speaker as
// changed" (no replay was active, or the run outran the recorded
// trajectory).
func (e *BGPEngine) ChangedSpeakers() map[string]bool {
	if e.replay == nil || len(e.replay.rounds) == 0 {
		return nil
	}
	last := e.replay.rounds[len(e.replay.rounds)-1]
	out := map[string]bool{}
	for _, host := range e.order {
		sp := e.speakers[host]
		h, ok := last[host]
		if !ok || !locRIBEqual(sp.locRIB, h.locRIB) {
			out[host] = true
		}
	}
	return out
}

// IncrementalStats reports the most recent run's replay effectiveness:
// speaker-rounds restored from the trajectory, prefixes re-evaluated for
// recomputed speakers, and whole rounds in which every speaker restored.
func (e *BGPEngine) IncrementalStats() (restored, dirtyPrefixes, roundsSkipped int64) {
	return e.statRestored, e.statDirtyPrefixes, e.statRoundsSkipped
}
