package routing

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"strings"
	"sync"
)

// VendorProfile captures the decision-process differences between BGP
// implementations that §7.2 exploits: the 2013 Quagga default skipped the
// IGP-cost tie-break, so the Bad-Gadget style oscillation visible on IOS,
// JunOS and C-BGP did not appear on Quagga.
type VendorProfile struct {
	Name string
	// UseIGPTieBreak enables decision step "prefer lowest IGP metric to
	// next hop".
	UseIGPTieBreak bool
	// AlwaysCompareMED compares MED between routes from different
	// neighbouring ASes (off everywhere by default).
	AlwaysCompareMED bool
}

// The reference implementations of §5.4/§7.2.
var (
	ProfileQuagga = VendorProfile{Name: "quagga", UseIGPTieBreak: false}
	ProfileIOS    = VendorProfile{Name: "ios", UseIGPTieBreak: true}
	ProfileJunos  = VendorProfile{Name: "junos", UseIGPTieBreak: true}
	ProfileCBGP   = VendorProfile{Name: "cbgp", UseIGPTieBreak: true}
)

// ProfileFor maps a syntax name to its vendor profile, defaulting to
// Quagga.
func ProfileFor(syntax string) VendorProfile {
	switch strings.ToLower(syntax) {
	case "ios":
		return ProfileIOS
	case "junos":
		return ProfileJunos
	case "cbgp":
		return ProfileCBGP
	default:
		return ProfileQuagga
	}
}

// BGPRoute is one path with its attributes.
type BGPRoute struct {
	Prefix       netip.Prefix
	NextHop      netip.Addr
	ASPath       []int
	LocalPref    int // default 100
	MED          int
	FromEBGP     bool       // learned over an eBGP session
	LearnedFrom  netip.Addr // peer the route came from (zero when local)
	Local        bool       // locally originated
	OriginatorID netip.Addr // router-id of the injecting router (RR loop prevention)
	FromRRClient bool       // learned from one of my clients
}

func (r BGPRoute) pathString() string {
	parts := make([]string, len(r.ASPath))
	for i, a := range r.ASPath {
		parts[i] = fmt.Sprint(a)
	}
	return strings.Join(parts, " ")
}

// String renders like a `show ip bgp` line.
func (r BGPRoute) String() string {
	return fmt.Sprintf("%v via %v path [%s] lp %d med %d", r.Prefix, r.NextHop, r.pathString(), r.LocalPref, r.MED)
}

// IGPCoster supplies IGP metrics for the decision process's tie-break.
type IGPCoster interface {
	// IGPCost returns the metric from host to addr, 0 when connected,
	// negative when unreachable.
	IGPCost(host string, addr netip.Addr) int
}

// zeroIGP reports every destination connected; used when no IGP runs.
type zeroIGP struct{}

func (zeroIGP) IGPCost(string, netip.Addr) int { return 0 }

type session struct {
	peerHost string
	peerAddr netip.Addr // address I send to / receive from
	cfg      BGPNeighbor
	ebgp     bool
	// myAddr is the local address used on this session (precomputed once;
	// see myAddressOn). Kept comparable so session sets compare with ==.
	myAddr netip.Addr
}

type speaker struct {
	host     string
	dc       *DeviceConfig
	profile  VendorProfile
	routerID netip.Addr
	sessions []session
	// sorted is sessions ordered by peer address (the deterministic
	// processing order), precomputed once at engine build.
	sorted []session
	// sessTo maps peer hostname to this speaker's first session toward it
	// (reverseSession semantics), precomputed once at engine build.
	sessTo map[string]session
	// advCache memoizes advertise() per session target address and prefix;
	// see advEntry. advMu guards it during sharded rounds, when several of
	// the speaker's peers may pull from it concurrently (shard.go).
	advCache map[netip.Addr]map[netip.Prefix]advEntry
	advMu    sync.Mutex
	// adjIn[peerAddr] is the current set of routes heard from that peer.
	adjIn map[netip.Addr][]BGPRoute
	// locRIB is the selected best route per prefix.
	locRIB map[netip.Prefix]BGPRoute
	// seg is the speaker's segment of the engine's protocol-state hash,
	// maintained incrementally (recomputed only when the speaker's state
	// changes; see segHash).
	seg uint64
}

// BGPEngine runs the path-vector computation over a set of speakers.
type BGPEngine struct {
	speakers map[string]*speaker
	order    []string
	igp      IGPCoster
	// addrOwner maps every configured address to its host, for session
	// establishment.
	addrOwner map[netip.Addr]string

	sequential bool
	rounds     int
	// stateHashes records the rounds at which each protocol-state hash was
	// observed (up to the last three). Without a perturber a single repeat
	// is a cycle; under perturbation a state can legitimately recur (a
	// lost route is re-learned), so oscillation requires three sightings
	// with a consistent period.
	stateHashes map[uint64][]int
	oscillating bool
	cycleLen    int
	converged   bool
	cancelled   bool
	// SessionsUp lists established sessions after New.
	sessionsUp   int
	sessionsDown []string

	// pert, when set, degrades every advertisement delivery; nil is the
	// zero-perturbation fast path.
	pert Perturber
	// churn counts best-route changes per prefix across all speakers;
	// changedAt records the last round each speaker's selection changed.
	churn     map[netip.Prefix]int
	changedAt map[string]int
	// sessFlaps counts up↔down transitions per unordered session pair, as
	// observed at delivery time — the supervisor's evidence for locating a
	// flapping speaker.
	sessFlaps map[[2]string]int
	sessUp    map[[2]string]bool

	// Incremental-reconvergence state (see replay.go). replay is the
	// previous run's trajectory being replayed (nil when inactive); record
	// accumulates this run's trajectory. staticDirty marks speakers whose
	// configuration differs from the replayed run's; deviant marks speakers
	// that have departed from the trajectory mid-run. Both are indexed like
	// order. ran guards against replaying into a continuation run.
	replay      *BGPReplay
	record      *BGPReplay
	staticDirty []bool
	deviant     []bool
	ran         bool

	statRestored      int64
	statDirtyPrefixes int64
	statRoundsSkipped int64

	// Sharded-evaluation state (see shard.go). shardWorkers is the SetShards
	// knob (<= 1 keeps the sequential sweep); plan caches the per-AS
	// partition and its dependency DAG; pertMu serializes perturbation-layer
	// calls during concurrent shard evaluation. The stat pair covers the
	// most recent run.
	shardWorkers     int
	plan             *shardPlan
	pertMu           sync.Mutex
	statShardRounds  int64
	statCrossAdverts int64
}

// NewBGPEngine wires up sessions between the given devices. profileOf maps
// hostname to vendor profile (nil means Quagga everywhere); igp supplies
// metrics (nil means all destinations connected).
func NewBGPEngine(devices []*DeviceConfig, profileOf func(host string) VendorProfile, igp IGPCoster) (*BGPEngine, error) {
	if igp == nil {
		igp = zeroIGP{}
	}
	e := &BGPEngine{
		speakers:    map[string]*speaker{},
		igp:         igp,
		addrOwner:   map[netip.Addr]string{},
		stateHashes: map[uint64][]int{},
		churn:       map[netip.Prefix]int{},
		changedAt:   map[string]int{},
		sessFlaps:   map[[2]string]int{},
		sessUp:      map[[2]string]bool{},
	}
	for _, dc := range devices {
		if dc.BGP == nil {
			continue
		}
		prof := ProfileQuagga
		if profileOf != nil {
			prof = profileOf(dc.Hostname)
		}
		rid := dc.BGP.RouterID
		if !rid.IsValid() && dc.HasLoopback() {
			rid = dc.Loopback
		}
		if !rid.IsValid() && len(dc.Interfaces) > 0 {
			rid = dc.Interfaces[0].Addr
		}
		sp := &speaker{
			host: dc.Hostname, dc: dc, profile: prof, routerID: rid,
			adjIn:  map[netip.Addr][]BGPRoute{},
			locRIB: map[netip.Prefix]BGPRoute{},
		}
		e.speakers[dc.Hostname] = sp
		e.order = append(e.order, dc.Hostname)
		for _, ic := range dc.Interfaces {
			e.addrOwner[ic.Addr] = dc.Hostname
		}
		if dc.HasLoopback() {
			e.addrOwner[dc.Loopback] = dc.Hostname
		}
	}
	sort.Strings(e.order)
	// Establish sessions: a neighbor statement whose address belongs to a
	// device that has a matching reverse session.
	for _, host := range e.order {
		sp := e.speakers[host]
		for _, nbr := range sp.dc.BGP.Neighbors {
			peerHost, ok := e.addrOwner[nbr.Addr]
			if !ok {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %v (address unknown)", host, nbr.Addr))
				continue
			}
			peer := e.speakers[peerHost]
			if peer == nil {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (runs no BGP)", host, peerHost, nbr.Addr))
				continue
			}
			if peer.dc.BGP.ASN != nbr.RemoteASN {
				e.sessionsDown = append(e.sessionsDown, fmt.Sprintf("%s -> %s@%v (remote-as %d, actual %d)", host, peerHost, nbr.Addr, nbr.RemoteASN, peer.dc.BGP.ASN))
				continue
			}
			sp.sessions = append(sp.sessions, session{
				peerHost: peerHost,
				peerAddr: nbr.Addr,
				cfg:      nbr,
				ebgp:     nbr.RemoteASN != sp.dc.BGP.ASN,
			})
			e.sessionsUp++
		}
	}
	// A deterministic report: map iteration never orders this list, and
	// every entry names the peer address, so golden diffs are stable.
	sort.Strings(e.sessionsDown)
	// Second pass: precompute per-session local addresses, the sorted
	// processing order, the reverse-session index, and each speaker's
	// initial state-hash segment.
	for _, host := range e.order {
		sp := e.speakers[host]
		for i := range sp.sessions {
			sp.sessions[i].myAddr = e.myAddressOn(sp, sp.sessions[i])
		}
		sp.sorted = make([]session, len(sp.sessions))
		copy(sp.sorted, sp.sessions)
		sort.Slice(sp.sorted, func(i, j int) bool { return sp.sorted[i].peerAddr.Less(sp.sorted[j].peerAddr) })
		sp.sessTo = make(map[string]session, len(sp.sessions))
		for _, s := range sp.sessions {
			if _, ok := sp.sessTo[s.peerHost]; !ok {
				sp.sessTo[s.peerHost] = s
			}
		}
		sp.advCache = map[netip.Addr]map[netip.Prefix]advEntry{}
		sp.seg = e.segHash(sp)
	}
	return e, nil
}

// SessionsUp returns the number of configured sessions that matched a
// reachable, correctly-numbered peer.
func (e *BGPEngine) SessionsUp() int { return e.sessionsUp }

// SessionsDown describes the neighbor statements that could not form a
// session — the configuration errors emulation is meant to surface. The
// list is sorted and each entry carries the peer address, so reports are
// byte-stable across runs.
func (e *BGPEngine) SessionsDown() []string { return e.sessionsDown }

// SetPerturber installs a control-plane perturbation layer; nil restores
// the perfect-delivery fast path. Install before Run.
func (e *BGPEngine) SetPerturber(p Perturber) { e.pert = p }

// deliver applies the perturbation layer to one session's advertisements
// for the current round, recording session up/down transitions.
func (e *BGPEngine) deliver(from, to string, routes []BGPRoute) []BGPRoute {
	if e.pert == nil {
		return routes
	}
	pair := [2]string{from, to}
	if pair[1] < pair[0] {
		pair = [2]string{to, from}
	}
	up := e.pert.SessionUp(e.rounds, from, to)
	if prev, seen := e.sessUp[pair]; seen && prev != up {
		e.sessFlaps[pair]++
	}
	e.sessUp[pair] = up
	if !up {
		return nil
	}
	return e.pert.Deliver(e.rounds, from, to, routes)
}

// myAddressOn returns the local address used for the session to peerAddr
// (the interface sharing the peer's subnet, or the loopback for
// loopback-peered iBGP sessions).
func (e *BGPEngine) myAddressOn(sp *speaker, s session) netip.Addr {
	for _, ic := range sp.dc.Interfaces {
		if ic.Prefix.Contains(s.peerAddr) && ic.Prefix.Bits() < 32 {
			return ic.Addr
		}
	}
	if sp.dc.HasLoopback() {
		return sp.dc.Loopback
	}
	if len(sp.dc.Interfaces) > 0 {
		return sp.dc.Interfaces[0].Addr
	}
	return netip.Addr{}
}

// SetSequential switches the processing model. The default is synchronous
// rounds (Jacobi): all speakers select, then all advertisements exchange at
// once — modelling MRAI-timer-locked routers updating in lockstep, the
// regime in which timing-sensitive oscillations manifest. Sequential mode
// (Gauss–Seidel) processes one speaker at a time against its peers' current
// state, modelling asynchronous routers; oscillation under sequential
// processing therefore indicates a configuration with no stable route
// assignment at all (an RFC 3345-class persistent oscillation), not a
// timing artifact.
func (e *BGPEngine) SetSequential(on bool) { e.sequential = on }

// Step runs one processing round (see SetSequential for the two models).
// It returns true when the round changed nothing (convergence).
func (e *BGPEngine) Step() bool {
	if e.sequential {
		if e.useSharded() {
			return e.stepSharded()
		}
		return e.stepSequential()
	}
	e.rounds++
	// Phase 1: selection.
	e.selectAll()
	// Phase 2: advertisement into fresh adj-RIB-ins.
	next := map[string]map[netip.Addr][]BGPRoute{}
	for _, host := range e.order {
		next[host] = map[netip.Addr][]BGPRoute{}
	}
	for _, host := range e.order {
		sp := e.speakers[host]
		for _, s := range sp.sorted {
			peer := e.speakers[s.peerHost]
			myAddr := s.myAddr
			var out []BGPRoute
			for _, prefix := range sortedPrefixes(sp.locRIB) {
				rt := sp.locRIB[prefix]
				adv, ok := sp.advertise(rt, s, myAddr)
				if ok {
					out = append(out, adv)
				}
			}
			out = e.deliver(sp.host, s.peerHost, out)
			// The peer indexes the session by the address it configured for
			// me.
			peerSideAddr := e.addrFor(peer, sp, myAddr)
			if peerSideAddr.IsValid() {
				next[s.peerHost][peerSideAddr] = filterReceived(peer, out, peerSideAddr)
			}
		}
	}
	changed := false
	for _, host := range e.order {
		sp := e.speakers[host]
		if !adjEqual(sp.adjIn, next[host]) {
			changed = true
		}
		sp.adjIn = next[host]
	}
	if changed {
		// Re-select so observers see the post-round state.
		e.selectAll()
	}
	// Synchronous rounds rewrite every adj-RIB-in wholesale, so refresh all
	// state-hash segments (cost parity with the previous full-state hash).
	for _, host := range e.order {
		sp := e.speakers[host]
		sp.seg = e.segHash(sp)
	}
	return !changed
}

// selectAll is the synchronous round's selection phase: every speaker
// re-selects against its current adj-RIB-in, churn applied as it goes.
func (e *BGPEngine) selectAll() {
	for _, host := range e.order {
		churned, _ := e.selectBest(e.speakers[host])
		e.applyChurn(host, churned)
	}
}

// advertiseCached is advertise() behind the speaker's per-session memo:
// outbound policy is a pure function of (route, session), so an unchanged
// route re-advertises the cached result (sharing its AS-path slice, which
// no downstream path mutates) instead of re-allocating it.
func (sp *speaker) advertiseCached(rt BGPRoute, s session) (BGPRoute, bool) {
	byPfx := sp.advCache[s.peerAddr]
	if byPfx == nil {
		byPfx = map[netip.Prefix]advEntry{}
		sp.advCache[s.peerAddr] = byPfx
	}
	if c, ok := byPfx[rt.Prefix]; ok && routeIdentical(c.src, rt) {
		return c.out, c.ok
	}
	out, ok := sp.advertise(rt, s, s.myAddr)
	byPfx[rt.Prefix] = advEntry{src: rt, out: out, ok: ok}
	return out, ok
}

// reverseSession finds peer's established session back to sp (first match
// in configuration order, via the precomputed index).
func (e *BGPEngine) reverseSession(peer, sp *speaker) (session, bool) {
	s, ok := peer.sessTo[sp.host]
	return s, ok
}

func locRIBEqual(a, b map[netip.Prefix]BGPRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for p, ra := range a {
		rb, ok := b[p]
		if !ok || !routeEqual(ra, rb) {
			return false
		}
	}
	return true
}

// addrFor finds which established session address the peer uses for the
// sender (preferring the sender's exact session address). A session only
// carries routes when BOTH ends configured it consistently — a remote-as
// mismatch on either side leaves it down, exactly as in a real lab.
func (e *BGPEngine) addrFor(peer, sender *speaker, senderAddr netip.Addr) netip.Addr {
	for _, s := range peer.sessions {
		if s.peerHost == sender.host && s.peerAddr == senderAddr {
			return s.peerAddr
		}
	}
	for _, s := range peer.sessions {
		if s.peerHost == sender.host {
			return s.peerAddr
		}
	}
	return netip.Addr{}
}

// filterReceived applies inbound processing: loop prevention and local-pref
// assignment.
func filterReceived(sp *speaker, routes []BGPRoute, fromAddr netip.Addr) []BGPRoute {
	var cfg *BGPNeighbor
	for i := range sp.dc.BGP.Neighbors {
		if sp.dc.BGP.Neighbors[i].Addr == fromAddr {
			cfg = &sp.dc.BGP.Neighbors[i]
			break
		}
	}
	var out []BGPRoute
	for _, r := range routes {
		if containsASN(r.ASPath, sp.dc.BGP.ASN) && cfg != nil && cfg.RemoteASN != sp.dc.BGP.ASN {
			continue // eBGP AS-path loop
		}
		if r.OriginatorID.IsValid() && r.OriginatorID == sp.routerID {
			continue // RR originator loop
		}
		r.LearnedFrom = fromAddr
		if cfg != nil && cfg.RemoteASN != sp.dc.BGP.ASN {
			r.FromEBGP = true
			if cfg.LocalPrefIn > 0 {
				r.LocalPref = cfg.LocalPrefIn
			} else {
				r.LocalPref = 100
			}
		} else {
			r.FromEBGP = false
			r.FromRRClient = cfg != nil && cfg.RRClient
		}
		r.Local = false
		out = append(out, r)
	}
	return out
}

// advertise applies outbound policy for one route on one session.
func (sp *speaker) advertise(rt BGPRoute, s session, myAddr netip.Addr) (BGPRoute, bool) {
	out := rt
	if s.ebgp {
		if containsASN(rt.ASPath, s.cfg.RemoteASN) {
			return BGPRoute{}, false
		}
		out.ASPath = append([]int{sp.dc.BGP.ASN}, rt.ASPath...)
		out.NextHop = myAddr
		out.MED = s.cfg.MEDOut
		out.LocalPref = 0
		out.OriginatorID = netip.Addr{}
		out.FromRRClient = false
		return out, true
	}
	// iBGP advertisement rules.
	switch {
	case rt.Local, rt.FromEBGP:
		// Locally known routes go to every iBGP peer, with next-hop-self
		// (the loopback) so the IGP can resolve it.
		if sp.dc.HasLoopback() {
			out.NextHop = sp.dc.Loopback
		} else {
			out.NextHop = myAddr
		}
		out.OriginatorID = sp.routerID
	case rt.FromRRClient:
		// Reflected from a client: to all iBGP peers.
	default:
		// From a non-client iBGP peer: only to my clients.
		if !s.cfg.RRClient {
			return BGPRoute{}, false
		}
	}
	out.ASPath = append([]int{}, rt.ASPath...)
	out.FromRRClient = false
	if !out.OriginatorID.IsValid() {
		out.OriginatorID = rt.OriginatorID
	}
	return out, true
}

// selectBest runs the decision process for every known prefix. It
// returns the prefixes whose selection changed (in map-iteration order;
// every consumer applies them as a set — see applyChurn) and the number of
// prefixes evaluated, for the replay dirty-prefix statistics.
func (e *BGPEngine) selectBest(sp *speaker) (churned []netip.Prefix, evaluated int) {
	candidates := map[netip.Prefix][]BGPRoute{}
	// Locally originated networks.
	for _, p := range sp.dc.BGP.Networks {
		candidates[p] = append(candidates[p], BGPRoute{
			Prefix: p, LocalPref: 100, Local: true,
		})
	}
	peers := make([]netip.Addr, 0, len(sp.adjIn))
	for a := range sp.adjIn {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Less(peers[j]) })
	for _, peer := range peers {
		for _, r := range sp.adjIn[peer] {
			// Next-hop reachability check.
			if r.NextHop.IsValid() && e.igp.IGPCost(sp.host, r.NextHop) < 0 {
				continue
			}
			candidates[r.Prefix] = append(candidates[r.Prefix], r)
		}
	}
	newRIB := map[netip.Prefix]BGPRoute{}
	for p, cands := range candidates {
		if best, ok := e.decide(sp, cands); ok {
			newRIB[p] = best
		}
	}
	churned = churnDelta(sp.locRIB, newRIB)
	sp.locRIB = newRIB
	return churned, len(candidates)
}

// churnDelta lists the prefixes whose selection changed between the old
// and new loc-RIB — the per-prefix route-churn metric convergence
// experiments report. It is empty exactly when the loc-RIB content did not
// change (!locRIBEqual(old, new)).
func churnDelta(oldRIB, newRIB map[netip.Prefix]BGPRoute) (churned []netip.Prefix) {
	for p, nr := range newRIB {
		if or, had := oldRIB[p]; !had || !routeEqual(or, nr) {
			churned = append(churned, p)
		}
	}
	for p := range oldRIB {
		if _, still := newRIB[p]; !still {
			churned = append(churned, p)
		}
	}
	return churned
}

// RouteChurn returns the per-prefix count of best-route changes across all
// speakers since the engine was built (rounds-to-quiescence's companion
// metric: how much the selections moved on the way there).
func (e *BGPEngine) RouteChurn() map[netip.Prefix]int {
	out := make(map[netip.Prefix]int, len(e.churn))
	for p, n := range e.churn {
		out[p] = n
	}
	return out
}

// TotalChurn sums RouteChurn over all prefixes.
func (e *BGPEngine) TotalChurn() int {
	n := 0
	for _, c := range e.churn {
		n += c
	}
	return n
}

// UnstableSpeakers returns the speakers whose selection changed within the
// last `window` rounds, sorted — the devices implicated in a detected
// oscillation.
func (e *BGPEngine) UnstableSpeakers(window int) []string {
	if window < 1 {
		window = 1
	}
	var out []string
	for host, at := range e.changedAt {
		if at > e.rounds-window {
			out = append(out, host)
		}
	}
	sort.Strings(out)
	return out
}

// FlappingSessions returns the unordered session pairs that transitioned
// up↔down at least min times during the run, sorted — the adjacency-change
// log a supervisor uses to locate a sick speaker.
func (e *BGPEngine) FlappingSessions(min int) [][2]string {
	if min < 1 {
		min = 1
	}
	var out [][2]string
	for pair, n := range e.sessFlaps {
		if n >= min {
			out = append(out, pair)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// SoftReset flushes the given speakers' RIBs (adj-RIB-in and selections)
// and clears the engine's convergence verdict, so a following Run
// re-exchanges routes from scratch on those sessions — the supervisor's
// `clear ip bgp` escalation step. The perturbation layer is notified so
// session-state-local faults can heal.
func (e *BGPEngine) SoftReset(hosts []string) {
	for _, host := range hosts {
		sp, ok := e.speakers[host]
		if !ok {
			continue
		}
		sp.adjIn = map[netip.Addr][]BGPRoute{}
		sp.locRIB = map[netip.Prefix]BGPRoute{}
		sp.seg = e.segHash(sp)
		if e.pert != nil {
			e.pert.OnSoftReset(host)
		}
	}
	// A flush invalidates both the replayed trajectory and the recording:
	// the continuation run departs from any from-scratch trajectory.
	e.replay, e.record = nil, nil
	e.stateHashes = map[uint64][]int{}
	e.converged, e.oscillating, e.cancelled = false, false, false
	e.cycleLen = 0
}

// SessionComponents counts the connected components of the established
// session graph over the engine's speakers: more than one means the
// control plane is partitioned (speakers exist that can never hear each
// other's routes).
func (e *BGPEngine) SessionComponents() int {
	if len(e.order) == 0 {
		return 0
	}
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, h := range e.order {
		parent[h] = h
	}
	for _, host := range e.order {
		for _, s := range e.speakers[host].sessions {
			parent[find(host)] = find(s.peerHost)
		}
	}
	roots := map[string]bool{}
	for _, h := range e.order {
		roots[find(h)] = true
	}
	return len(roots)
}

// decide implements the BGP decision process with the speaker's vendor
// profile.
func (e *BGPEngine) decide(sp *speaker, cands []BGPRoute) (BGPRoute, bool) {
	if len(cands) == 0 {
		return BGPRoute{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if e.better(sp, c, best) {
			best = c
		}
	}
	return best, true
}

// better reports whether a beats b under the decision process.
func (e *BGPEngine) better(sp *speaker, a, b BGPRoute) bool {
	// 1. Highest local-pref.
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	// 2. Locally originated.
	if a.Local != b.Local {
		return a.Local
	}
	// 3. Shortest AS path.
	if len(a.ASPath) != len(b.ASPath) {
		return len(a.ASPath) < len(b.ASPath)
	}
	// 4. Lowest MED, comparable only between routes from the same
	// neighbouring AS (unless always-compare-med).
	sameNeighborAS := len(a.ASPath) > 0 && len(b.ASPath) > 0 && a.ASPath[0] == b.ASPath[0]
	if (sameNeighborAS || sp.profile.AlwaysCompareMED) && a.MED != b.MED {
		return a.MED < b.MED
	}
	// 5. eBGP over iBGP.
	if a.FromEBGP != b.FromEBGP {
		return a.FromEBGP
	}
	// 6. Lowest IGP metric to next hop (vendor-dependent, §7.2).
	if sp.profile.UseIGPTieBreak {
		ca, cb := e.igpCostOf(sp, a), e.igpCostOf(sp, b)
		if ca != cb {
			return ca < cb
		}
	}
	// 7. Lowest originator router-id (RFC 4456: the ORIGINATOR_ID
	// substitutes for the router-id of reflected routes). This comparison
	// is route-intrinsic — every viewer ranks candidates identically — so
	// a decision process that stops here (Quagga without the IGP
	// tie-break) reaches a globally consistent, stable choice where the
	// viewer-dependent IGP comparison of step 6 can oscillate.
	ra, rb := a.OriginatorID, b.OriginatorID
	if !ra.IsValid() {
		ra = a.LearnedFrom
	}
	if !rb.IsValid() {
		rb = b.LearnedFrom
	}
	switch {
	case !ra.IsValid() && rb.IsValid():
		return true
	case ra.IsValid() && !rb.IsValid():
		return false
	case ra.IsValid() && rb.IsValid() && ra != rb:
		return ra.Less(rb)
	}
	// 8. Lowest peer address.
	al, bl := a.LearnedFrom, b.LearnedFrom
	switch {
	case !al.IsValid() && bl.IsValid():
		return true
	case al.IsValid() && !bl.IsValid():
		return false
	case al.IsValid() && bl.IsValid() && al != bl:
		return al.Less(bl)
	}
	return false
}

func (e *BGPEngine) igpCostOf(sp *speaker, r BGPRoute) int {
	if !r.NextHop.IsValid() {
		return 0
	}
	c := e.igp.IGPCost(sp.host, r.NextHop)
	if c < 0 {
		return 1 << 30
	}
	return c
}

// Run executes rounds until convergence, a repeated state (oscillation), or
// maxRounds. It returns the outcome.
func (e *BGPEngine) Run(maxRounds int) BGPResult {
	return e.RunContext(context.Background(), maxRounds)
}

// RunContext is Run with cancellation: the context is checked every round,
// and a cancelled run reports Cancelled instead of spinning to the round
// cap — a deploy-level timeout can reclaim a hung convergence. Calling it
// again (after a SoftReset) continues from the current protocol state
// under a fresh round budget.
func (e *BGPEngine) RunContext(ctx context.Context, maxRounds int) BGPResult {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxBGPRounds
	}
	// Replay is only valid for a fresh engine's first, unperturbed run: a
	// continuation (post-escalation) run departs from the from-scratch
	// trajectory, and the perturbation layer is stateful (flap counters,
	// delivery schedules), so perturbed runs neither replay nor record.
	if e.ran || e.pert != nil {
		e.replay, e.record = nil, nil
	}
	e.ran = true
	e.statRestored, e.statDirtyPrefixes, e.statRoundsSkipped = 0, 0, 0
	e.statShardRounds, e.statCrossAdverts = 0, 0
	e.stateHashes = map[uint64][]int{}
	e.converged, e.oscillating, e.cancelled = false, false, false
	e.cycleLen = 0
	if e.pert != nil {
		e.pert.Reset()
	}
	for r := 0; r < maxRounds; r++ {
		if ctx.Err() != nil {
			e.cancelled = true
			break
		}
		quiet := e.Step()
		if quiet {
			if e.pert == nil || !e.pert.Pending(e.rounds) {
				e.converged = true
				break
			}
			// Delayed advertisements are still in flight: the state is
			// momentarily stable but must not register as convergence (or
			// as a cycle — it will change when the queue drains).
			continue
		}
		h := e.stateHash()
		seen := e.stateHashes[h]
		if cl, ok := e.cycleDetected(seen); ok {
			e.oscillating = true
			e.cycleLen = cl
			break
		}
		if len(seen) == 3 {
			seen = seen[1:]
		}
		e.stateHashes[h] = append(seen, e.rounds)
	}
	if !e.converged && !e.oscillating && !e.cancelled {
		e.oscillating = true // ran out of rounds without stabilising
		e.cycleLen = -1
	}
	return BGPResult{
		Converged:   e.converged,
		Oscillating: e.oscillating,
		Cancelled:   e.cancelled,
		Rounds:      e.rounds,
		CycleLen:    e.cycleLen,
	}
}

// cycleDetected decides whether re-seeing a state constitutes a cycle.
// Without a perturber one repeat suffices (the engine is deterministic, so
// a repeated state must loop forever). Under perturbation a state can
// legitimately recur — a lost route is re-learned, recreating an earlier
// table — so a cycle requires the state to repeat twice with the same
// period, which aperiodic loss does not produce but a flap schedule does.
func (e *BGPEngine) cycleDetected(seen []int) (int, bool) {
	if len(seen) == 0 {
		return 0, false
	}
	last := seen[len(seen)-1]
	if e.pert == nil {
		return e.rounds - last, true
	}
	if len(seen) >= 2 {
		prev := seen[len(seen)-2]
		if e.rounds-last == last-prev {
			return e.rounds - last, true
		}
	}
	return 0, false
}

// BGPResult summarises a Run.
type BGPResult struct {
	Converged   bool
	Oscillating bool
	// Cancelled reports that the run's context expired before either
	// convergence or a detected oscillation.
	Cancelled bool
	Rounds    int
	CycleLen  int
}

// stateHash combines every speaker's state-hash segment into one value
// covering the complete protocol state — every speaker's adj-RIB-in and
// selection. Selections alone are insufficient: during initial propagation
// the selected routes can be momentarily stable while longer paths are
// still flooding, which must not register as a cycle. The segments are
// XOR-combined (each is salted with its hostname, so identical speaker
// states cannot cancel), which lets sequential rounds maintain the hash
// incrementally: only speakers whose state changed re-render their
// segment. Only hash *equality* across rounds is observable (cycle
// detection), and for any reachable pair of rounds equal protocol states
// produce equal segments.
func (e *BGPEngine) stateHash() uint64 {
	var h uint64
	for _, host := range e.order {
		h ^= e.speakers[host].seg
	}
	return h
}

// segHash renders one speaker's protocol state — adj-RIB-in and selection
// — into its segment of the engine state hash.
func (e *BGPEngine) segHash(sp *speaker) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|", sp.host)
	peers := make([]netip.Addr, 0, len(sp.adjIn))
	for a := range sp.adjIn {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Less(peers[j]) })
	for _, peer := range peers {
		fmt.Fprintf(h, "<%v:", peer)
		for _, rt := range sp.adjIn[peer] {
			fmt.Fprintf(h, "%v>%v[%s]lp%dm%do%v;", rt.Prefix, rt.NextHop, rt.pathString(), rt.LocalPref, rt.MED, rt.OriginatorID)
		}
	}
	for _, p := range sortedPrefixes(sp.locRIB) {
		rt := sp.locRIB[p]
		fmt.Fprintf(h, "%v>%v[%s];", p, rt.NextHop, rt.pathString())
	}
	return h.Sum64()
}

// BestRoutes returns a speaker's selected routes, sorted by prefix (the
// emulated `show ip bgp`).
func (e *BGPEngine) BestRoutes(host string) []BGPRoute {
	sp, ok := e.speakers[host]
	if !ok {
		return nil
	}
	var out []BGPRoute
	for _, p := range sortedPrefixes(sp.locRIB) {
		out = append(out, sp.locRIB[p])
	}
	return out
}

// Speakers returns the hostnames running BGP, sorted.
func (e *BGPEngine) Speakers() []string {
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}

func sortedPrefixes(m map[netip.Prefix]BGPRoute) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// adjEqual compares two adj-RIB-in states, treating absent and empty peer
// entries as equal.
func adjEqual(a, b map[netip.Addr][]BGPRoute) bool {
	keys := map[netip.Addr]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		ra, rb := a[k], b[k]
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if !routeEqual(ra[i], rb[i]) {
				return false
			}
		}
	}
	return true
}

func routeEqual(a, b BGPRoute) bool {
	if a.Prefix != b.Prefix || a.NextHop != b.NextHop || a.LocalPref != b.LocalPref ||
		a.MED != b.MED || a.FromEBGP != b.FromEBGP || a.Local != b.Local ||
		a.OriginatorID != b.OriginatorID || len(a.ASPath) != len(b.ASPath) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	return true
}

func containsASN(path []int, asn int) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}
