package main

import (
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"time"

	"autonetkit"
	"autonetkit/internal/core"
	"autonetkit/internal/deploy"
	"autonetkit/internal/emul"
	"autonetkit/internal/graph"
	"autonetkit/internal/measure"
	"autonetkit/internal/obs"
	"autonetkit/internal/sched"
	"autonetkit/internal/topogen"
)

// labProbes is the fixed batch of traceroutes run after every fail and
// every restore: enough source/destination pairs that the probe latency
// does not hang on which few paths a seed happens to pick.
const labProbes = 64

type probe struct {
	src string
	dst netip.Addr
}

// deployLab builds the lab-churn topology and boots it the way
// `ankchaos -incremental` does: incremental reconvergence, one BGP shard
// worker per CPU.
func deployLab(b *bench) (*autonetkit.Network, *emul.Lab, error) {
	g, err := topogen.NREN(topogen.NRENConfig{ASes: 6, Routers: 120, Links: 150, Seed: 7})
	if err != nil {
		return nil, nil, err
	}
	sp := b.tr.begin("topoio.load")
	net, err := autonetkit.LoadGraph(g)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = b.tr.begin("build")
	err = net.Build(autonetkit.BuildOptions{})
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = b.tr.begin("deploy")
	dep, err := net.Deploy(deploy.Options{Incremental: true, Shards: runtime.NumCPU()})
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return net, dep.Lab(), nil
}

// reserveLab holds the lab's machines on a durable substrate cluster of
// 36 hosts, as a multi-host deployment does, recovers the cluster once
// from its journal and returns how many records the recovery replayed.
// The recovered Status must equal the one before the close. This puts the
// scheduler and its journal on lab-churn's set-up path; cluster-churn,
// which loads them properly, is not among the workloads BENCHMARK.json
// runs (see README.md).
func reserveLab(b *bench, machines []string, col *obs.Collector) (int, error) {
	dir, err := os.MkdirTemp(b.workDir, "lab-churn-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	backend := sched.Uniform(clusterHosts, clusterSlots)
	opts := sched.Options{Seed: 2013, Obs: col}
	sp := b.tr.begin("sched.open")
	c, _, err := sched.Open(dir, backend, opts)
	b.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = b.tr.begin("sched.reserve")
	st, err := c.Reserve(sched.Spec{Name: "lab", Tenant: "lab", VMs: machines})
	b.tr.end(sp)
	b.attempted++
	if err != nil {
		c.Close()
		return 0, fmt.Errorf("reserving the lab: %w", err)
	}
	if st.State != sched.ResActive {
		b.fail("lab-churn: the lab's reservation is %s, not active", st.State)
	}
	want := c.Status().JSON()
	if err := c.Close(); err != nil {
		return 0, err
	}
	sp = b.tr.begin("sched.open")
	c, info, err := sched.Open(dir, backend, opts)
	b.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("recovering the lab's cluster: %w", err)
	}
	defer c.Close()
	b.attempted++
	if c.Status().JSON() != want {
		b.fail("lab-churn: recovered cluster status differs from status before close")
	}
	return info.Records, nil
}

// runProbes runs the probe batch, recording each traceroute as a secondary
// sample, and returns the paths.
func runProbes(b *bench, client *measure.Client, probes []probe, traced bool, hops, reached *int) ([][]string, error) {
	paths := make([][]string, len(probes))
	for i, p := range probes {
		sp := b.tr.begin("measure.traceroute")
		start := time.Now()
		tr, err := client.RunTraceroute(p.src, p.dst)
		b.sample(true, traced, time.Since(start))
		b.tr.end(sp)
		b.attempted++
		if err != nil {
			return nil, fmt.Errorf("traceroute %s -> %v: %w", p.src, p.dst, err)
		}
		paths[i] = tr.Path()
		if traced {
			*hops += len(tr.Hops)
			if tr.Reached {
				*reached++
			}
		}
	}
	return paths, nil
}

// linkStrata splits the lab's links into those whose failure changes what
// BGP sees — bridges of the link graph, whose loss cuts routers off, and
// links between ASes — and the rest, whose loss only reroutes the IGP.
func linkStrata(links [][2]string, asOf func(string) any) (wide, local [][2]string) {
	adj := map[string][]string{}
	for _, l := range links {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	// Tarjan's bridge search: a tree edge u-v is a bridge when nothing in
	// v's DFS subtree reaches back above v. Links() never repeats a pair,
	// so skipping the parent once is exact.
	order, low := map[string]int{}, map[string]int{}
	bridge := map[[2]string]bool{}
	var visit func(u, parent string)
	visit = func(u, parent string) {
		order[u] = len(order)
		low[u] = order[u]
		for _, v := range adj[u] {
			if v == parent {
				continue
			}
			if _, seen := order[v]; seen {
				low[u] = min(low[u], order[v])
				continue
			}
			visit(v, u)
			low[u] = min(low[u], low[v])
			if low[v] > order[u] {
				bridge[[2]string{u, v}], bridge[[2]string{v, u}] = true, true
			}
		}
	}
	for _, l := range links {
		if _, seen := order[l[0]]; !seen {
			visit(l[0], "")
		}
	}
	for _, l := range links {
		if bridge[l] || asOf(l[0]) != asOf(l[1]) {
			wide = append(wide, l)
		} else {
			local = append(local, l)
		}
	}
	return wide, local
}

// runLabChurn is the lab-churn workload: the 120-router lab, deployed once
// (setup_s is dominated by its cold boot converge), then a seeded loop of
// incidents — three link failures for each node failure, links drawn
// uniformly from every boot-time link, so intra-AS, backbone and inter-AS
// links all occur — each followed by its restore.
// Every fail and every restore is one primary sample ("reconverge") and is
// followed by the fixed probe batch, each traceroute one secondary sample
// ("probe"). After each restore the probe paths must equal the baseline
// paths recorded before the first incident.
func runLabChurn(b *bench) error {
	var (
		net      *autonetkit.Network
		lab      *emul.Lab
		err      error
		schedObs = obs.NewCollector()
		replayed int
	)
	for i := 0; i < b.setups; i++ {
		b.startOp(b.traceRun)
		start := time.Now()
		root := b.tr.begin("setup")
		net, lab, err = deployLab(b)
		if err == nil {
			var n int
			n, err = reserveLab(b, lab.VMNames(), schedObs)
			replayed += n
		}
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		b.attempted++
		if res := lab.BGPResult(); !res.Converged {
			b.fail("lab-churn: boot did not converge: %+v", res)
		}
	}

	client := net.Measure(lab)
	var loopbacks []netip.Addr
	for _, e := range net.Alloc.Table.Entries() {
		if e.Loopback {
			loopbacks = append(loopbacks, e.Addr)
		}
	}
	slices.SortFunc(loopbacks, func(x, y netip.Addr) int { return x.Compare(y) })
	links, machines := lab.Links(), lab.LiveVMNames()
	asOf := func(m string) any {
		return net.ANM.Overlay(core.OverlayInput).Graph().Node(graph.ID(m)).Get(core.AttrASN)
	}
	wide, local := linkStrata(links, asOf)
	probes := make([]probe, labProbes)
	for i := range probes {
		probes[i] = probe{machines[b.rng.Intn(len(machines))], loopbacks[b.rng.Intn(len(loopbacks))]}
	}
	var hops, reached int
	b.startOp(false)
	baseline, err := runProbes(b, client, probes, false, &hops, &reached)
	if err != nil {
		return fmt.Errorf("baseline probes: %w", err)
	}

	type incident struct {
		name          string
		fail, restore func() error
	}
	var (
		before          map[string]int64
		counters        = map[string]int64{}
		reconverges     int
		rounds, churn   int
		tracedIncidents int
	)
	// runIncident fails and restores one drawn incident, probing after
	// each step.
	runIncident := func(inc incident, traced bool) error {
		if traced {
			before = net.Stats().Counters
			tracedIncidents++
		}
		for _, step := range []struct {
			verb string
			call func() error
		}{{"fail", inc.fail}, {"restore", inc.restore}} {
			sp := b.tr.begin("emul." + step.verb + "_" + inc.name)
			start := time.Now()
			err := step.call()
			b.sample(false, traced, time.Since(start))
			b.tr.end(sp)
			b.attempted++
			if err != nil {
				return fmt.Errorf("%s %s: %w", step.verb, inc.name, err)
			}
			res := lab.BGPResult()
			if !res.Converged {
				b.fail("lab-churn: %s %s did not converge: %+v", step.verb, inc.name, res)
			}
			if traced {
				reconverges++
				rounds += res.Rounds
				churn += lab.TotalChurn()
			}
			paths, err := runProbes(b, client, probes, traced, &hops, &reached)
			if err != nil {
				return err
			}
			if step.verb == "restore" {
				for k := range paths {
					if !slices.Equal(paths[k], baseline[k]) {
						b.fail("lab-churn: after restoring a %s, probe %s -> %v takes %v, not the baseline %v",
							inc.name, probes[k].src, probes[k].dst, paths[k], baseline[k])
					}
				}
			}
		}
		if traced {
			for k, v := range net.Stats().Counters {
				counters[k] += v - before[k]
			}
		}
		return nil
	}

	// Incident k is a node failure when k%4 == 3 and a link failure
	// otherwise. Links are drawn uniformly within two strata — those whose
	// failure moves BGP (bridges of the link graph and inter-AS links,
	// 0.7–1.1 s to reconverge on a 2-core machine) and the rest (0.1–0.4 s)
	// — and each stratum's turn comes in proportion to its size. Every link
	// is still equally likely, but each run gets the same mix of slow and
	// fast reconverges, so medians do not jump between the two modes with
	// the seed.
	wideShare := float64(len(wide)) / float64(len(links))
	linkIncidents := 0
	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		var inc incident
		if i%4 != 3 {
			stratum := local
			if j := float64(linkIncidents); int((j+1)*wideShare) > int(j*wideShare) {
				stratum = wide
			}
			linkIncidents++
			l := stratum[b.rng.Intn(len(stratum))]
			inc = incident{"link",
				func() error { return lab.FailLink(l[0], l[1]) },
				func() error { return lab.RestoreLink(l[0], l[1]) }}
		} else {
			m := machines[b.rng.Intn(len(machines))]
			inc = incident{"node",
				func() error { return lab.FailNode(m) },
				func() error { return lab.RestoreNode(m) }}
		}
		// A traced run plays each incident twice, traced and untraced in
		// alternating order, so the overhead compares like with like.
		passes := []bool{false}
		if b.traceRun {
			passes = []bool{i%2 == 1, i%2 == 0}
		}
		for _, traced := range passes {
			b.startOp(traced)
			if err := runIncident(inc, traced); err != nil {
				return err
			}
		}
	}

	if b.traceRun {
		ls := b.tr.layers()
		setups := float64(len(b.setup))
		b.layer("sched.open_ms", ls["setup/sched.open"].meanMs(), "ms")
		b.layer("sched.reserve_us", ls["setup/sched.reserve"].meanUs(), "us")
		b.layer("journal.appends", ratio(float64(schedObs.Counter(obs.CounterJournalAppends)), setups), "count")
		b.layer("journal.replayed_records", ratio(float64(replayed), setups), "count")
		r := float64(reconverges)
		speakers := float64(len(machines))
		var incidentAlloc uint64
		for _, k := range []string{"fail_link", "restore_link", "fail_node", "restore_node"} {
			incidentAlloc += ls["emul."+k].alloc
		}
		b.layer("deploy.run_s", ls["setup/deploy"].meanMs()/1e3, "s")
		b.layer("emul.fail_link_ms", ls["emul.fail_link"].meanMs(), "ms")
		b.layer("emul.restore_link_ms", ls["emul.restore_link"].meanMs(), "ms")
		b.layer("emul.fail_node_ms", ls["emul.fail_node"].meanMs(), "ms")
		b.layer("emul.restore_node_ms", ls["emul.restore_node"].meanMs(), "ms")
		b.layer("emul.alloc_mb_per_incident", ratio(float64(incidentAlloc)/1e6, float64(tracedIncidents)), "MB")
		b.layer("routing.bgp_rounds", ratio(float64(rounds), r), "count")
		b.layer("routing.churn", ratio(float64(churn), r), "count")
		for _, c := range []string{
			obs.CounterSPFDeltaRecomputes, obs.CounterSPFSourcesSkipped, obs.CounterBGPSpeakersRestored,
			obs.CounterBGPDirtyPrefixes, obs.CounterRoundsSkipped, obs.CounterShardRoundsParallel,
			obs.CounterCrossShardAdverts,
		} {
			b.layer("routing."+c, ratio(float64(counters[c]), r), "count")
		}
		b.layer("routing.speaker_restore_ratio", ratio(float64(counters[obs.CounterBGPSpeakersRestored]), speakers*r), "ratio")
		b.layer("dataplane.fib_nodes_reused", ratio(float64(counters[obs.CounterFIBNodesReused]), r), "count")
		b.layer("dataplane.fib_reuse_ratio", ratio(float64(counters[obs.CounterFIBNodesReused]), speakers*r), "ratio")
		probesRun := float64(len(b.tracedSecondary))
		b.layer("measure.traceroute_us", ls["measure.traceroute"].meanUs(), "us")
		b.layer("measure.hops_per_probe", ratio(float64(hops), probesRun), "count")
		b.layer("measure.reached_ratio", ratio(float64(reached), probesRun), "ratio")
	}
	return nil
}
