package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"autonetkit/internal/obs"
	"autonetkit/internal/sched"
)

// Cluster-churn stream shape: 36 hosts of 40 slots; reservations of 8–63
// VMs from six tenants plus a weight-5 tenant that preempts. Once use
// passes 85 % half the mutations are releases, and while VMs queue all of
// them are, so use hovers between 85 % and full — where requests queue and
// the weight-5 tenant preempts. Every recoverEvery operations the cluster
// is closed and recovered from its journal.
const (
	clusterHosts    = 36
	clusterSlots    = 40
	clusterTenants  = 6
	releaseAbove    = 0.85
	recoverEvery    = 100
	leaseTick       = 5 * time.Second
	clusterPrefills = 24
)

// clusterRun is one durable cluster under the seeded stream.
type clusterRun struct {
	b       *bench
	dir     string
	opts    sched.Options
	c       *sched.Cluster
	clock   time.Time
	live    []string // reservations not yet released, in arrival order
	seq     int
	used    float64 // share of schedulable slots in use at the last read
	queued  int     // VMs queued at the last read
	drained string  // host drained by the last drain, uncordoned next
}

// open opens (or recovers) the cluster and returns how many journal
// records it replayed.
func (r *clusterRun) open() (int, error) {
	c, info, err := sched.Open(r.dir, sched.Uniform(clusterHosts, clusterSlots), r.opts)
	if err != nil {
		return 0, err
	}
	r.c = c
	return info.Records, nil
}

// reserve requests a new reservation of 8–63 VMs; one in sixteen comes
// from the weight-5 tenant, which may preempt.
func (r *clusterRun) reserve() (bool, error) {
	r.seq++
	sp := sched.Spec{
		Name:   fmt.Sprintf("r%06d", r.seq),
		Tenant: fmt.Sprintf("t%d", r.b.rng.Intn(clusterTenants)),
		Count:  8 + r.b.rng.Intn(56),
	}
	if r.b.rng.Intn(16) == 0 {
		sp.Tenant, sp.Weight = "prod", 5
	}
	st, err := r.c.Reserve(sp)
	if err != nil {
		return false, err
	}
	r.live = append(r.live, sp.Name)
	return st.State == sched.ResActive, nil
}

// release frees a uniformly drawn live reservation.
func (r *clusterRun) release() error {
	k := r.b.rng.Intn(len(r.live))
	name := r.live[k]
	r.live = append(r.live[:k], r.live[k+1:]...)
	return r.c.Release(name)
}

func (r *clusterRun) readCapacity() sched.CapacityReport {
	rep := r.c.Capacity()
	r.used = ratio(float64(rep.UsedSlots), float64(rep.TotalSlots))
	r.queued = rep.QueuedVMs
	return rep
}

// runClusterChurn is the cluster-churn workload: a durable scheduler
// cluster (journal fsynced on every append, preemption on, leases on a
// logical clock) under a seeded multi-tenant stream. Every scheduler call
// is one primary sample ("sched op"); every Close+Open recovery is one
// secondary sample ("recover"), and the recovered Status must equal the
// one before the close.
func runClusterChurn(b *bench) error {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return err
	}
	col := obs.NewCollector()
	newRun := func() (*clusterRun, error) {
		dir, err := os.MkdirTemp(b.workDir, "cluster-churn-")
		if err != nil {
			return nil, err
		}
		r := &clusterRun{b: b, dir: dir, clock: time.Unix(0, 0)}
		r.opts = sched.Options{
			Seed:    2013,
			Preempt: true,
			Lease:   sched.LeasePolicy{Enabled: true},
			Obs:     col,
			Now:     func() time.Time { return r.clock },
		}
		return r, nil
	}

	// Set-up opens an empty durable cluster and fills it to steady-state
	// use with the seeded stream's first reservations.
	var r *clusterRun
	for i := 0; i < b.setups; i++ {
		b.startOp(b.traceRun)
		if r != nil {
			r.c.Close()
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
		}
		var err error
		if r, err = newRun(); err != nil {
			return err
		}
		start := time.Now()
		root := b.tr.begin("setup")
		sp := b.tr.begin("sched.open")
		_, err = r.open()
		b.tr.end(sp)
		for k := 0; err == nil && k < clusterPrefills; k++ {
			sp := b.tr.begin("sched.reserve")
			_, err = r.reserve()
			b.tr.end(sp)
		}
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
	}
	defer func() {
		r.c.Close()
		os.RemoveAll(r.dir)
	}()

	var (
		reserves, admitted, drains, recovers, replayed int
		journalBytes                                   int64
		before                                         map[string]int64
		counters                                       = map[string]int64{}
		sizes                                          = map[string]int64{}
	)
	// journalWritten returns the bytes appended to the journal's files
	// since the last call: growth of files seen before plus new files.
	journalWritten := func() (int64, error) {
		var written int64
		entries, err := os.ReadDir(r.dir)
		if err != nil {
			return 0, err
		}
		next := map[string]int64{}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			next[e.Name()] = info.Size()
			if d := info.Size() - sizes[e.Name()]; d > 0 {
				written += d
			}
		}
		sizes = next
		return written, nil
	}

	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		// Tracing alternates in blocks of 128 operations, so traced and
		// untraced operations see the same mix of operation kinds.
		traced := b.startOp(b.traceRun && i/128%2 == 1)
		if traced {
			before = col.Snapshot().Counters
			if _, err := journalWritten(); err != nil {
				return err
			}
		}
		var (
			name string
			err  error
		)
		start := time.Now()
		switch {
		case r.drained != "":
			name = "sched.uncordon"
			sp := b.tr.begin(name)
			err = r.c.Uncordon(r.drained)
			b.tr.end(sp)
			r.drained = ""
		case i%64 == 31:
			name = "sched.drain"
			host := fmt.Sprintf("h%02d", 1+b.rng.Intn(clusterHosts))
			sp := b.tr.begin(name)
			_, err = r.c.Drain(host)
			b.tr.end(sp)
			r.drained = host
			if traced {
				drains++
			}
		case i%32 == 15:
			name = "sched.lease_round"
			r.clock = r.clock.Add(leaseTick)
			sp := b.tr.begin(name)
			renewed := r.c.HeartbeatAll()
			transitions := r.c.CheckLeases()
			b.tr.end(sp)
			if len(renewed) != clusterHosts || len(transitions) != 0 {
				b.fail("cluster-churn: lease round renewed %d of %d hosts with transitions %v", len(renewed), clusterHosts, transitions)
			}
		case i%16 == 7:
			name = "sched.status"
			sp := b.tr.begin(name)
			st := r.c.Status()
			b.tr.end(sp)
			r.used = ratio(float64(st.Capacity.UsedSlots), float64(st.Capacity.TotalSlots))
			r.queued = st.Capacity.QueuedVMs
			if st.Capacity.UsedSlots > st.Capacity.TotalSlots {
				b.fail("cluster-churn: status reports %d of %d slots used", st.Capacity.UsedSlots, st.Capacity.TotalSlots)
			}
		case i%4 == 3:
			name = "sched.capacity"
			sp := b.tr.begin(name)
			rep := r.readCapacity()
			b.tr.end(sp)
			if rep.UsedSlots > rep.TotalSlots {
				b.fail("cluster-churn: capacity reports %d of %d slots used", rep.UsedSlots, rep.TotalSlots)
			}
		case len(r.live) > 0 && (r.queued > 0 || r.used > releaseAbove && b.rng.Intn(2) == 0):
			name = "sched.release"
			sp := b.tr.begin(name)
			err = r.release()
			b.tr.end(sp)
		default:
			name = "sched.reserve"
			sp := b.tr.begin(name)
			var active bool
			active, err = r.reserve()
			b.tr.end(sp)
			if traced {
				reserves++
				if active {
					admitted++
				}
			}
		}
		b.sample(false, traced, time.Since(start))
		b.attempted++
		if err != nil && !errors.Is(err, sched.ErrDegraded) {
			b.fail("cluster-churn: %s: %v", name, err)
		}
		if traced {
			written, err := journalWritten()
			if err != nil {
				return err
			}
			journalBytes += written
			for k, v := range col.Snapshot().Counters {
				counters[k] += v - before[k]
			}
		}

		if i%recoverEvery == recoverEvery-1 {
			traced := b.startOp(b.traceRun && recovers%2 == 1)
			want := r.c.Status().JSON()
			sp := b.tr.begin("recover")
			start := time.Now()
			err := r.c.Close()
			if err == nil {
				osp := b.tr.begin("sched.open")
				var n int
				n, err = r.open()
				b.tr.end(osp)
				replayed += n
			}
			b.sample(true, traced, time.Since(start))
			b.tr.end(sp)
			b.attempted++
			if err != nil {
				return fmt.Errorf("recover: %w", err)
			}
			recovers++
			if got := r.c.Status().JSON(); got != want {
				b.fail("cluster-churn: status after recovery differs from status before close")
			}
		}
	}

	if b.traceRun {
		ls := b.tr.layers()
		tracedOps := float64(len(b.tracedPrimary))
		b.layer("sched.reserve_us", ls["sched.reserve"].meanUs(), "us")
		b.layer("sched.release_us", ls["sched.release"].meanUs(), "us")
		b.layer("sched.drain_ms", ls["sched.drain"].meanMs(), "ms")
		b.layer("sched.lease_round_us", ls["sched.lease_round"].meanUs(), "us")
		b.layer("sched.status_us", ls["sched.status"].meanUs(), "us")
		b.layer("sched.open_ms", ls["recover/sched.open"].meanMs(), "ms")
		b.layer("sched.preemptions", ratio(float64(counters[obs.CounterPreemptions]), float64(reserves)), "count")
		b.layer("sched.vms_replaced", ratio(float64(counters[obs.CounterVMsReplaced]), float64(drains)), "count")
		b.layer("sched.reservations_queued", ratio(float64(counters[obs.CounterReservationsQueued]), float64(reserves)), "count")
		b.layer("sched.admit_ratio", ratio(float64(admitted), float64(reserves)), "ratio")
		b.layer("journal.appends", ratio(float64(counters[obs.CounterJournalAppends]), tracedOps), "count")
		b.layer("journal.snapshots", ratio(float64(counters[obs.CounterJournalSnapshots]), tracedOps), "count")
		b.layer("journal.bytes_per_op", ratio(float64(journalBytes), tracedOps), "B")
		b.layer("journal.replayed_records", ratio(float64(replayed), float64(recovers)), "count")
	}
	return nil
}
