package routing

import (
	"net/netip"
	"sort"
	"sync"
)

// Gauss–Seidel rounds and their two schedules. Every sequential round is
// processSpeaker once per speaker followed by one merge barrier
// (mergeRound); the schedules differ only in which goroutine runs which
// speaker when. The sweep (stepSequential) runs speakers one at a time in
// hostname order on the calling goroutine — the byte-identity oracle. The
// wavefront (stepSharded) exploits the topology's AS structure to recover
// parallelism without giving up that identity: iBGP meshes are AS-local,
// so partitioning speakers by ASN yields a shard graph whose cut edges are
// exactly the eBGP sessions. Inside each round, shards evaluate
// concurrently on a bounded worker pool, but every speaker still observes
// exactly the peer states the sweep would have shown it:
//
//   - within a shard, speakers run in hostname order (the sweep order);
//   - across shards, a speaker X with a session peer P earlier in the
//     sweep (P < X) waits until P has finished this round. Because P < X
//     implies P is a dependency of X and X < P implies the converse,
//     session endpoints are never evaluated concurrently.
//
// Hostname order is a topological order of this dependency DAG (every
// dependency points strictly backwards), so the wavefront always makes
// progress: the lowest-indexed unprocessed speaker has all dependencies
// satisfied, hence its shard is runnable. Each speaker therefore reads its
// predecessors' round-r state and its successors' round-(r-1) state — the
// Gauss–Seidel contract — under both schedules.
//
// Engine-level side effects (churn counters, changed-at stamps, replay
// statistics, trajectory recording, perturbation events) are never applied
// by processSpeaker. Each speaker collects its deltas into per-speaker
// slots, and the merge barrier applies them single-threaded in canonical
// order: speakers in sweep (hostname) order, sessions in peer-address
// order. That is the order the sweep produces them in, so counters, event
// logs and recorded trajectories are byte-identical at any shard/worker
// count — which also means replay restore/record keys on post-merge state
// and incremental × sharded compose (a trajectory recorded sharded replays
// sequentially and vice versa).

// Shard is one unit of the structural partition: an AS and its speakers in
// sweep (hostname) order. Every speaker appears in exactly one shard.
type Shard struct {
	ASN      int
	Speakers []string
}

// planShard is the internal form of a shard: speaker indices into e.order.
type planShard struct {
	asn int
	idx []int
}

// shardPlan is the engine's precomputed partition and dependency DAG. The
// session graph is fixed at engine build, so the plan is computed once and
// cached.
type shardPlan struct {
	shards  []planShard
	index   map[string]int // hostname -> position in e.order
	shardOf []int          // speaker index -> shard index
	// deps[i] lists i's cross-shard session peers that precede it in the
	// sweep — the speakers i must wait for each round. Same-shard
	// predecessors are ordered by the shard's own sequential execution.
	deps [][]int
	// peers[i] lists all of i's session-peer indices (both directions of
	// the sweep), for the replay admission check.
	peers [][]int
}

// shardPlan returns the cached partition, building it on first use.
func (e *BGPEngine) shardPlan() *shardPlan {
	if e.plan != nil {
		return e.plan
	}
	p := &shardPlan{
		index:   make(map[string]int, len(e.order)),
		shardOf: make([]int, len(e.order)),
		deps:    make([][]int, len(e.order)),
		peers:   make([][]int, len(e.order)),
	}
	for i, host := range e.order {
		p.index[host] = i
	}
	byASN := map[int][]int{}
	for i, host := range e.order {
		asn := e.speakers[host].dc.BGP.ASN
		byASN[asn] = append(byASN[asn], i) // ascending: e.order is sorted
	}
	asns := make([]int, 0, len(byASN))
	for asn := range byASN {
		asns = append(asns, asn)
	}
	sort.Ints(asns)
	for sid, asn := range asns {
		p.shards = append(p.shards, planShard{asn: asn, idx: byASN[asn]})
		for _, i := range byASN[asn] {
			p.shardOf[i] = sid
		}
	}
	for i, host := range e.order {
		sp := e.speakers[host]
		seen := map[int]bool{}
		for _, s := range sp.sessions {
			j := p.index[s.peerHost] // sessions only form toward speakers
			if !seen[j] {
				seen[j] = true
				p.peers[i] = append(p.peers[i], j)
				if j < i && p.shardOf[j] != p.shardOf[i] {
					p.deps[i] = append(p.deps[i], j)
				}
			}
		}
		sort.Ints(p.peers[i])
		sort.Ints(p.deps[i])
	}
	e.plan = p
	return p
}

// SetShards sets the worker count for sharded round evaluation. n <= 1
// keeps the sequential sweep (the default, and the parity baseline); n > 1
// evaluates the per-AS shards concurrently on up to n workers. Results are
// byte-identical at any value. Sharding only applies in sequential
// (Gauss–Seidel) mode; synchronous rounds are already whole-table
// exchanges.
func (e *BGPEngine) SetShards(n int) { e.shardWorkers = n }

// ShardCount returns the number of structural shards — distinct ASNs among
// the speakers. It is a property of the topology, independent of the
// SetShards knob.
func (e *BGPEngine) ShardCount() int {
	if len(e.order) == 0 {
		return 0
	}
	return len(e.shardPlan().shards)
}

// ShardStats reports the most recent run's sharded-evaluation work:
// rounds evaluated by the parallel wavefront (0 under the sweep) and
// advertisements delivered across shard boundaries (post-filter routes on
// eBGP sessions, counted under either schedule).
func (e *BGPEngine) ShardStats() (parallelRounds, crossShardAdverts int64) {
	return e.statShardRounds, e.statCrossAdverts
}

// ShardLayout returns the structural partition: one Shard per ASN (sorted
// by ASN, speakers in sweep order) plus the cut edges — the unordered
// session pairs that cross shards, sorted. By construction a session is a
// cut edge exactly when it is an eBGP session.
func (e *BGPEngine) ShardLayout() ([]Shard, [][2]string) {
	p := e.shardPlan()
	shards := make([]Shard, len(p.shards))
	for sid, ps := range p.shards {
		names := make([]string, len(ps.idx))
		for k, i := range ps.idx {
			names[k] = e.order[i]
		}
		shards[sid] = Shard{ASN: ps.asn, Speakers: names}
	}
	cutSet := map[[2]string]bool{}
	for i, host := range e.order {
		for _, s := range e.speakers[host].sessions {
			if p.shardOf[p.index[s.peerHost]] != p.shardOf[i] {
				pair := [2]string{host, s.peerHost}
				if pair[1] < pair[0] {
					pair[0], pair[1] = pair[1], pair[0]
				}
				cutSet[pair] = true
			}
		}
	}
	cuts := make([][2]string, 0, len(cutSet))
	for pair := range cutSet {
		cuts = append(cuts, pair)
	}
	sort.Slice(cuts, func(i, j int) bool {
		if cuts[i][0] != cuts[j][0] {
			return cuts[i][0] < cuts[j][0]
		}
		return cuts[i][1] < cuts[j][1]
	})
	return shards, cuts
}

// useSharded reports whether the next sequential round should run the
// parallel wavefront rather than the single-goroutine sweep.
func (e *BGPEngine) useSharded() bool {
	return e.shardWorkers > 1 && len(e.shardPlan().shards) > 1
}

// shardRun is one Gauss–Seidel round: the per-speaker delta slots the
// merge barrier consumes, plus the wavefront's scheduler state (unused by
// the sweep). Speakers write only their own slots (and pullers touch
// peers' advertise caches under the peer's advMu), so the slices need no
// locking; the scheduler mutex orders all cross-shard hand-offs.
type shardRun struct {
	e    *BGPEngine
	plan *shardPlan
	hist replayRound

	// Per-speaker delta slots, applied at the barrier in sweep order.
	churned  [][]netip.Prefix
	changed  []bool
	restored []bool
	dirty    []int64
	crossAdv []int64
	// rec collects the round's trajectory record (nil when not recording).
	rec []replayState
	// events[i][k] captures perturber event lines for speaker i's k-th
	// sorted session, restaged in (speaker, session) order at the barrier.
	events [][][]string

	mu        sync.Mutex
	done      []bool
	cursor    []int         // per shard: position in planShard.idx
	waiters   map[int][]int // speaker index -> shard ids parked on it
	ready     chan int
	remaining int
}

// beginRound is the prologue both schedules share: it advances the round
// counter, drops a replay trajectory the run has outrun, and allocates the
// round's per-speaker slots.
func (e *BGPEngine) beginRound() *shardRun {
	e.rounds++
	var hist replayRound
	if e.replay != nil {
		if idx := e.rounds - 1; idx < len(e.replay.rounds) {
			hist = e.replay.rounds[idx]
		} else {
			// The run outran the recorded trajectory; no further restores.
			e.replay = nil
		}
	}
	n := len(e.order)
	r := &shardRun{
		e: e, plan: e.shardPlan(), hist: hist,
		churned:  make([][]netip.Prefix, n),
		changed:  make([]bool, n),
		restored: make([]bool, n),
		dirty:    make([]int64, n),
		crossAdv: make([]int64, n),
	}
	if e.record != nil {
		r.rec = make([]replayState, n)
	}
	if e.pert != nil {
		r.events = make([][][]string, n)
	}
	return r
}

// stepSequential is the sweep schedule: speakers one at a time in
// hostname order on the calling goroutine, then the merge barrier.
func (e *BGPEngine) stepSequential() bool {
	r := e.beginRound()
	for i := range e.order {
		e.processSpeaker(i, r)
	}
	return e.mergeRound(r)
}

// stepSharded is the wavefront schedule: the per-AS shards evaluate
// concurrently on up to shardWorkers goroutines, then the merge barrier.
// See the comment at the top of this file for the identity argument.
func (e *BGPEngine) stepSharded() bool {
	r := e.beginRound()
	e.statShardRounds++
	plan := r.plan
	r.done = make([]bool, len(e.order))
	r.cursor = make([]int, len(plan.shards))
	r.waiters = map[int][]int{}
	r.ready = make(chan int, len(plan.shards))
	r.remaining = len(plan.shards)
	for sid := range plan.shards {
		r.ready <- sid
	}
	workers := e.shardWorkers
	if workers > len(plan.shards) {
		workers = len(plan.shards)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sid := range r.ready {
				if r.runShard(sid) {
					r.finishShard()
				}
			}
		}()
	}
	wg.Wait()
	return e.mergeRound(r)
}

// mergeRound is the merge barrier that ends every Gauss–Seidel round: it
// applies each speaker's slots single-threaded in sweep order — the
// order in which the speakers produced them under the sweep schedule — and
// reports whether the round changed nothing.
func (e *BGPEngine) mergeRound(r *shardRun) bool {
	changed := false
	restoredThisRound := 0
	var rec replayRound
	if r.rec != nil {
		rec = make(replayRound, len(e.order))
	}
	for i, host := range e.order {
		e.applyChurn(host, r.churned[i])
		changed = changed || r.changed[i]
		if r.restored[i] {
			e.statRestored++
			restoredThisRound++
		}
		e.statDirtyPrefixes += r.dirty[i]
		e.statCrossAdverts += r.crossAdv[i]
		if rec != nil {
			rec[host] = r.rec[i]
		}
		if r.events != nil {
			for _, lines := range r.events[i] {
				e.pert.restageEvents(lines)
			}
		}
	}
	if r.hist != nil && restoredThisRound == len(e.order) {
		e.statRoundsSkipped++
	}
	if rec != nil {
		e.record.rounds = append(e.record.rounds, rec)
	}
	return !changed
}

// applyChurn counts one speaker's best-route changes into the per-prefix
// churn metric and stamps its last-changed round for the watchdog's
// unstable-speaker detection.
func (e *BGPEngine) applyChurn(host string, churned []netip.Prefix) {
	for _, p := range churned {
		e.churn[p]++
	}
	if len(churned) > 0 {
		e.changedAt[host] = e.rounds
	}
}

// finishShard retires a completed shard, closing the ready queue when the
// last one finishes so the workers drain and exit.
func (r *shardRun) finishShard() {
	r.mu.Lock()
	r.remaining--
	if r.remaining == 0 {
		close(r.ready)
	}
	r.mu.Unlock()
}

// runShard advances one shard's cursor until the shard completes (true) or
// parks on an unmet cross-shard dependency (false; the dependency's
// completion re-enqueues it). Parking and completion-marking share r.mu,
// so a wakeup cannot be lost between the dependency check and the park.
func (r *shardRun) runShard(sid int) bool {
	sh := &r.plan.shards[sid]
	for {
		r.mu.Lock()
		if r.cursor[sid] >= len(sh.idx) {
			r.mu.Unlock()
			return true
		}
		i := sh.idx[r.cursor[sid]]
		blocked := -1
		for _, j := range r.plan.deps[i] {
			if !r.done[j] {
				blocked = j
				break
			}
		}
		if blocked >= 0 {
			r.waiters[blocked] = append(r.waiters[blocked], sid)
			r.mu.Unlock()
			return false
		}
		r.mu.Unlock()
		r.e.processSpeaker(i, r)
		r.mu.Lock()
		r.done[i] = true
		r.cursor[sid]++
		woken := r.waiters[i]
		delete(r.waiters, i)
		r.mu.Unlock()
		// Re-enqueue outside the lock; the buffer holds every shard, and a
		// shard is queued at most once, so this never blocks. The queue
		// cannot have closed: this shard has not called finishShard yet, so
		// remaining >= 1.
		for _, w := range woken {
			r.ready <- w
		}
	}
}

// canRestore is the replay admission check: the speaker and all its
// session peers must be neither statically dirty nor deviant from the
// trajectory. Predecessor peers carry this round's verdict (they finished
// before us), successors last round's — the Gauss–Seidel views.
func (r *shardRun) canRestore(i int) bool {
	e := r.e
	if e.staticDirty[i] || e.deviant[i] {
		return false
	}
	for _, j := range r.plan.peers[i] {
		if e.staticDirty[j] || e.deviant[j] {
			return false
		}
	}
	return true
}

// processSpeaker computes speaker i's Gauss–Seidel round under either
// schedule: each speaker pulls its peers' current advertisements, rebuilds
// its adj-RIB-in and re-selects. Engine-level side effects go into the
// shardRun's per-speaker slots for the merge barrier. Beyond those it
// writes the speaker's own RIBs and deviant verdict, which session peers
// read in sweep order, and lock-guarded state: peers' advertise caches
// (advMu) and the perturbation layer (pertMu).
//
// When a replay trajectory is armed (EnableIncremental), a speaker whose
// round state is provably identical to the recorded one restores it
// instead of recomputing — see replay.go for the admission argument.
// Recomputed speakers are checked against the record afterwards: an exact
// match re-adopts the recorded maps (so peers keep restoring), a mismatch
// marks the speaker deviant.
func (e *BGPEngine) processSpeaker(i int, r *shardRun) {
	host := e.order[i]
	sp := e.speakers[host]
	if r.hist != nil {
		if h, ok := r.hist[host]; ok && r.canRestore(i) {
			sp.adjIn = h.adjIn
			sp.locRIB = h.locRIB
			sp.seg = h.seg
			r.churned[i] = h.churned
			r.changed[i] = h.changed
			r.restored[i] = true
			if r.rec != nil {
				r.rec[i] = h
			}
			return
		}
	}
	newIn := map[netip.Addr][]BGPRoute{}
	for k, s := range sp.sorted {
		peer := e.speakers[s.peerHost]
		ps, ok := e.reverseSession(peer, sp)
		if !ok {
			continue
		}
		var out []BGPRoute
		// The peer is quiescent (finished, or not yet started, this round —
		// session endpoints never run concurrently), but under the wavefront
		// several of its other peers may be pulling from it right now; advMu
		// serializes their writes to its advertise cache.
		peer.advMu.Lock()
		for _, prefix := range sortedPrefixes(peer.locRIB) {
			rt := peer.locRIB[prefix]
			if adv, ok := peer.advertiseCached(rt, ps); ok {
				out = append(out, adv)
			}
		}
		peer.advMu.Unlock()
		out = e.deliverCaptured(i, k, peer.host, sp.host, out, r)
		newIn[s.peerAddr] = filterReceived(sp, out, s.peerAddr)
		if s.ebgp { // eBGP sessions are exactly the cross-shard ones
			r.crossAdv[i] += int64(len(newIn[s.peerAddr]))
		}
	}
	spChanged := !adjEqual(sp.adjIn, newIn)
	sp.adjIn = newIn
	churned, evaluated := e.selectBest(sp)
	if r.hist != nil {
		r.dirty[i] = int64(evaluated)
	}
	spChanged = spChanged || len(churned) > 0
	if spChanged {
		sp.seg = e.segHash(sp)
	}
	r.churned[i] = churned
	r.changed[i] = spChanged
	if r.hist != nil {
		h, ok := r.hist[host]
		onTrajectory := ok && sp.seg == h.seg &&
			adjIdentical(sp.adjIn, h.adjIn) && locRIBIdentical(sp.locRIB, h.locRIB)
		if onTrajectory {
			// Back on (or still on) the trajectory: adopt the recorded maps
			// so identity holds by reference for downstream peers.
			sp.adjIn = h.adjIn
			sp.locRIB = h.locRIB
		}
		e.deviant[i] = !onTrajectory
	}
	if r.rec != nil {
		r.rec[i] = replayState{adjIn: sp.adjIn, locRIB: sp.locRIB, seg: sp.seg, changed: spChanged, churned: churned}
	}
}

// deliverCaptured applies the perturbation layer for one session under the
// engine's perturber lock, capturing any event lines for canonical
// restaging at the barrier. The perturber's decisions are FNV-keyed by
// (round, session, route) and its per-session state is only touched by the
// session's two endpoints — which run in sweep order — so out-of-order
// shard evaluation changes only the order event lines are produced, never
// their content; the barrier restores the order.
func (e *BGPEngine) deliverCaptured(i, k int, from, to string, routes []BGPRoute, r *shardRun) []BGPRoute {
	if e.pert == nil {
		return routes
	}
	e.pertMu.Lock()
	defer e.pertMu.Unlock()
	var buf []string
	e.pert.setCapture(&buf)
	out := e.deliver(from, to, routes)
	e.pert.setCapture(nil)
	if len(buf) > 0 {
		if r.events[i] == nil {
			r.events[i] = make([][]string, len(e.speakers[to].sorted))
		}
		r.events[i][k] = buf
	}
	return out
}
