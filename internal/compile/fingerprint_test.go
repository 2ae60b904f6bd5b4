package compile

import (
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/core"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/obs"
)

// digestAll computes every device's compile digest for the fig5 pipeline.
func digestAll(t *testing.T, anm *core.ANM, alloc *ipalloc.Result) map[graph.ID]cache.Digest {
	t.Helper()
	out := map[graph.ID]cache.Digest{}
	for _, n := range anm.Overlay(core.OverlayPhy).Routers() {
		out[n.ID()] = DeviceDigest(anm, alloc, Options{}, n.ID())
	}
	return out
}

func TestDeviceDigestStableAcrossRebuilds(t *testing.T) {
	anm1, alloc1, _ := pipeline(t, nil, Options{}, design.Options{})
	anm2, alloc2, _ := pipeline(t, nil, Options{}, design.Options{})
	d1 := digestAll(t, anm1, alloc1)
	d2 := digestAll(t, anm2, alloc2)
	if len(d1) == 0 {
		t.Fatal("no devices digested")
	}
	for id, dig := range d1 {
		if d2[id] != dig {
			t.Errorf("digest of %s drifted between identical builds", id)
		}
	}
}

// changedSet diffs two digest maps into the set of moved devices.
func changedSet(a, b map[graph.ID]cache.Digest) map[graph.ID]bool {
	out := map[graph.ID]bool{}
	for id, dig := range a {
		if b[id] != dig {
			out[id] = true
		}
	}
	return out
}

func TestDeviceDigestSelectiveInvalidation(t *testing.T) {
	anm, alloc, _ := pipeline(t, nil, Options{}, design.Options{})
	base := digestAll(t, anm, alloc)

	// A post-design OSPF edge-cost edit moves exactly the two endpoints.
	ospf := anm.Overlay(design.OverlayOSPF)
	ospf.Edge("r1", "r2").Set(design.AttrCost, 42)
	after := digestAll(t, anm, alloc)
	changed := changedSet(base, after)
	if len(changed) != 2 || !changed["r1"] || !changed["r2"] {
		t.Errorf("ospf cost edit moved %v, want exactly {r1 r2}", changed)
	}

	// An OSPF node attribute moves exactly that device (flip the backbone
	// flag — design may already have set it either way).
	base = after
	ospf.Node("r3").Set(design.AttrBackbone, !ospf.Node("r3").GetBool(design.AttrBackbone))
	after = digestAll(t, anm, alloc)
	changed = changedSet(base, after)
	if len(changed) != 1 || !changed["r3"] {
		t.Errorf("ospf node edit moved %v, want exactly {r3}", changed)
	}

	// Different compile options move every device.
	for _, n := range anm.Overlay(core.OverlayPhy).Routers() {
		if DeviceDigest(anm, alloc, Options{ZebraPassword: "sekrit"}, n.ID()) == after[n.ID()] {
			t.Errorf("option change did not move %s", n.ID())
		}
	}
}

func TestCompileCacheHitProducesIdenticalDB(t *testing.T) {
	store := cache.NewMemory()
	colCold := obs.NewCollector()
	_, _, dbCold := pipeline(t, nil, Options{Cache: store, Obs: colCold}, design.Options{})
	cold := colCold.Snapshot().Counters
	if cold[obs.CounterCompileCacheMisses] != int64(dbCold.Len()) {
		t.Errorf("cold misses = %d, want %d", cold[obs.CounterCompileCacheMisses], dbCold.Len())
	}
	if cold[obs.CounterCompileCacheHits] != 0 {
		t.Errorf("cold hits = %d, want 0", cold[obs.CounterCompileCacheHits])
	}

	colWarm := obs.NewCollector()
	_, _, dbWarm := pipeline(t, nil, Options{Cache: store, Obs: colWarm}, design.Options{})
	warm := colWarm.Snapshot().Counters
	if warm[obs.CounterCompileCacheHits] != int64(dbWarm.Len()) {
		t.Errorf("warm hits = %d, want %d", warm[obs.CounterCompileCacheHits], dbWarm.Len())
	}
	if warm[obs.CounterCompileCacheMisses] != 0 {
		t.Errorf("warm misses = %d, want 0", warm[obs.CounterCompileCacheMisses])
	}
	if warm[obs.CounterDevicesCompiled] != 0 {
		t.Errorf("warm compiled %d devices, want 0", warm[obs.CounterDevicesCompiled])
	}

	jc, err := dbCold.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jw, err := dbWarm.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(jc) != string(jw) {
		t.Error("cached compile produced a different Resource Database")
	}
}

// TestCompileCacheCorruptRecordRecompiles: a stored record that no longer
// decodes (version skew, corruption past the store's checksum) degrades to
// a recompile of exactly that device, never to an error or a different
// database, and the recompile re-stores a good record.
func TestCompileCacheCorruptRecordRecompiles(t *testing.T) {
	store := cache.NewMemory()
	anm, alloc, dbCold := pipeline(t, nil, Options{Cache: store}, design.Options{})
	victim := anm.Overlay(core.OverlayPhy).Routers()[0].ID()
	store.Put(DeviceDigest(anm, alloc, Options{}, victim), []byte("not a record"))

	for _, pass := range []struct {
		name                     string
		wantMisses, wantCompiled int64
	}{{"poisoned", 1, 1}, {"re-stored", 0, 0}} {
		col := obs.NewCollector()
		db, err := Compile(anm, alloc, Options{Cache: store, Obs: col})
		if err != nil {
			t.Fatal(err)
		}
		c := col.Snapshot().Counters
		if c[obs.CounterCompileCacheMisses] != pass.wantMisses || c[obs.CounterDevicesCompiled] != pass.wantCompiled {
			t.Errorf("%s: misses/compiled = %d/%d, want %d/%d", pass.name,
				c[obs.CounterCompileCacheMisses], c[obs.CounterDevicesCompiled], pass.wantMisses, pass.wantCompiled)
		}
		jc, _ := dbCold.MarshalJSON()
		jw, _ := db.MarshalJSON()
		if string(jc) != string(jw) {
			t.Errorf("%s: compile produced a different Resource Database", pass.name)
		}
	}
}
