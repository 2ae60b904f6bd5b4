package main

import (
	"bytes"
	"fmt"
	"time"

	"autonetkit"
	"autonetkit/internal/cache"
	"autonetkit/internal/compile"
	"autonetkit/internal/design"
	"autonetkit/internal/graph"
	"autonetkit/internal/ipalloc"
	"autonetkit/internal/obs"
	"autonetkit/internal/render"
	"autonetkit/internal/topogen"
	"autonetkit/internal/topoio"
)

// cacheBytes bounds the warm in-memory cache. Every edited rebuild adds
// about 10 MB of whole-build artifacts that no later edit hits; the bound
// lets the least recently used of them go after a few iterations, so
// memory reaches a steady state instead of growing with the run's length.
// The per-device artifacts of the unedited model (about 20 MB) are hit on
// every rebuild and stay.
const cacheBytes = 64 << 20

// ospfEdit sets one physical link's OSPF cost: the seeded edit each
// nren-build iteration makes to a freshly loaded input graph.
type ospfEdit struct {
	a, b graph.ID
	cost int
}

// buildPipeline loads the §3.2 model from its GraphML bytes, applies the
// edit and runs Design → Allocate → Compile → Render, with store as the
// build cache when it is not nil. Each layer call is one span.
func buildPipeline(b *bench, model []byte, edit *ospfEdit, store *cache.Store) (*autonetkit.Network, error) {
	sp := b.tr.begin("topoio.load")
	g, err := topoio.Read(bytes.NewReader(model), topoio.FormatGraphML)
	if err != nil {
		return nil, err
	}
	if edit != nil {
		e := g.Edge(edit.a, edit.b)
		if e == nil {
			return nil, fmt.Errorf("edit names no link %s -- %s", edit.a, edit.b)
		}
		e.Set(design.AttrCost, edit.cost)
	}
	net, err := autonetkit.LoadGraph(g)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("design")
	err = net.Design(design.Options{})
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("ipalloc")
	err = net.Allocate(ipalloc.Config{})
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("compile")
	err = net.Compile(compile.Options{Cache: store})
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("render")
	err = net.RenderWith(render.Options{Cache: store})
	b.tr.end(sp)
	return net, err
}

// sameTree reports whether two rendered trees hold the same paths with
// byte-identical contents.
func sameTree(x, y *render.FileSet) bool {
	px, py := x.SortedPaths(), y.SortedPaths()
	if len(px) != len(py) {
		return false
	}
	for i, p := range px {
		if p != py[i] {
			return false
		}
		cx, _ := x.Read(p)
		cy, _ := y.Read(p)
		if cx != cy {
			return false
		}
	}
	return true
}

// runNRENBuild is the nren-build workload: the paper's §3.2 model (42 ASes,
// 1158 routers, 1470 links). Set-up renders it once into an empty
// in-memory cache. Each iteration then makes one seeded OSPF-cost edit to
// a fresh copy of the input and builds it twice: uncached (primary,
// "build") and against the warm cache (secondary, "rebuild"). The two
// trees must be byte-identical.
func runNRENBuild(b *bench) error {
	g, err := topogen.NREN(topogen.DefaultNREN())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := topoio.WriteGraphML(&buf, g); err != nil {
		return err
	}
	model := buf.Bytes()
	edges := g.Edges()

	var store *cache.Store
	for i := 0; i < b.setups; i++ {
		b.startOp(b.traceRun)
		start := time.Now()
		if store, err = cache.Open("", cache.Options{MaxBytes: cacheBytes}); err != nil {
			return err
		}
		root := b.tr.begin("setup")
		net, err := buildPipeline(b, model, nil, store)
		b.tr.end(root)
		if err != nil {
			return fmt.Errorf("set-up build: %w", err)
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		// The static check is a correctness check, kept out of setup_s.
		sp := b.tr.begin("verify")
		rep, err := net.Verify()
		b.tr.end(sp)
		b.attempted++
		if err != nil {
			return err
		}
		if errs := rep.Errors(); len(errs) > 0 {
			b.fail("nren-build: verify.Static reports %d errors on the set-up build, first: %v", len(errs), errs[0])
		}
	}

	var (
		iters, devices, files, templates, bytesOut int64
		cHits, cMisses, rHits, rMisses, served     int64
	)
	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		traced := b.startOp(b.traceRun && i%2 == 1)
		e := edges[b.rng.Intn(len(edges))]
		edit := &ospfEdit{a: e.Src(), b: e.Dst(), cost: 2 + b.rng.Intn(63)}

		var built, rebuilt *autonetkit.Network
		var buildErr, rebuildErr error
		// Alternate which build goes first so neither always inherits the
		// other's garbage.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				sp := b.tr.begin("build")
				start := time.Now()
				built, buildErr = buildPipeline(b, model, edit, nil)
				b.sample(false, traced, time.Since(start))
				b.tr.end(sp)
			} else {
				sp := b.tr.begin("rebuild")
				start := time.Now()
				rebuilt, rebuildErr = buildPipeline(b, model, edit, store)
				b.sample(true, traced, time.Since(start))
				b.tr.end(sp)
			}
		}
		b.attempted += 2
		switch {
		case buildErr != nil:
			b.fail("nren-build: build: %v", buildErr)
		case rebuildErr != nil:
			b.fail("nren-build: rebuild: %v", rebuildErr)
		case !sameTree(built.Files, rebuilt.Files):
			b.fail("nren-build: cached rebuild after editing %s -- %s differs from the uncached build", edit.a, edit.b)
		}
		if !traced || buildErr != nil || rebuildErr != nil {
			continue
		}
		iters++
		bc, rc := built.Stats().Counters, rebuilt.Stats().Counters
		devices += bc[obs.CounterDevicesCompiled]
		files += bc[obs.CounterFilesRendered]
		templates += bc[obs.CounterTemplatesExecuted]
		bytesOut += bc[obs.CounterBytesWritten]
		cHits += rc[obs.CounterCompileCacheHits]
		cMisses += rc[obs.CounterCompileCacheMisses]
		rHits += rc[obs.CounterRenderCacheHits]
		rMisses += rc[obs.CounterRenderCacheMisses]
		served += rc[obs.CounterCacheBytes]
	}

	if b.traceRun {
		ls := b.tr.layers()
		n := float64(iters)
		b.layer("topoio.load_ms", ls["build/topoio.load"].meanMs(), "ms")
		b.layer("design.self_ms", ls["build/design"].meanMs(), "ms")
		b.layer("design.alloc_mb", ls["build/design"].meanAllocMB(), "MB")
		b.layer("ipalloc.self_ms", ls["build/ipalloc"].meanMs(), "ms")
		b.layer("compile.self_ms", ls["build/compile"].meanMs(), "ms")
		b.layer("compile.alloc_mb", ls["build/compile"].meanAllocMB(), "MB")
		b.layer("compile.devices", ratio(float64(devices), n), "count")
		b.layer("render.self_ms", ls["build/render"].meanMs(), "ms")
		b.layer("compile.cached_self_ms", ls["rebuild/compile"].meanMs(), "ms")
		b.layer("render.cached_self_ms", ls["rebuild/render"].meanMs(), "ms")
		b.layer("render.alloc_mb", ls["build/render"].meanAllocMB(), "MB")
		b.layer("render.files", ratio(float64(files), n), "count")
		b.layer("render.bytes", ratio(float64(bytesOut), n), "B")
		b.layer("render.templates", ratio(float64(templates), n), "count")
		b.layer("cache.compile_hits", ratio(float64(cHits), n), "count")
		b.layer("cache.compile_misses", ratio(float64(cMisses), n), "count")
		b.layer("cache.render_hits", ratio(float64(rHits), n), "count")
		b.layer("cache.render_misses", ratio(float64(rMisses), n), "count")
		b.layer("cache.hit_ratio", ratio(float64(cHits+rHits), float64(cHits+rHits+cMisses+rMisses)), "ratio")
		b.layer("cache.bytes", ratio(float64(served), n), "B")
		b.layer("verify.self_ms", ls["verify"].meanMs(), "ms")
	}
	return nil
}
