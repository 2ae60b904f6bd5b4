package render

import (
	"context"
	"testing"

	"autonetkit/internal/cache"
	"autonetkit/internal/obs"
	"autonetkit/internal/tmpl"
)

func renderHash(t *testing.T, fs *FileSet) string {
	t.Helper()
	var sb []byte
	for _, p := range fs.Paths() {
		c, _ := fs.Read(p)
		sb = append(sb, p...)
		sb = append(sb, 0)
		sb = append(sb, c...)
		sb = append(sb, 0)
	}
	return string(sb)
}

func TestRenderCacheWarmIsByteIdentical(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	store := cache.NewMemory()

	colCold := obs.NewCollector()
	cold, err := RenderWith(context.Background(), db, Options{Cache: store, Obs: colCold})
	if err != nil {
		t.Fatal(err)
	}
	if colCold.Snapshot().Counters[obs.CounterRenderCacheHits] != 0 {
		t.Error("cold build hit the cache")
	}
	if colCold.Snapshot().Counters[obs.CounterRenderCacheMisses] != int64(db.Len()) {
		t.Errorf("cold misses = %d, want %d",
			colCold.Snapshot().Counters[obs.CounterRenderCacheMisses], db.Len())
	}

	colWarm := obs.NewCollector()
	warm, err := RenderWith(context.Background(), db, Options{Cache: store, Obs: colWarm})
	if err != nil {
		t.Fatal(err)
	}
	wc := colWarm.Snapshot().Counters
	if wc[obs.CounterRenderCacheHits] != int64(db.Len()) || wc[obs.CounterRenderCacheMisses] != 0 {
		t.Errorf("warm hits/misses = %d/%d, want %d/0",
			wc[obs.CounterRenderCacheHits], wc[obs.CounterRenderCacheMisses], db.Len())
	}
	// Cache hits skip template execution entirely — only the lab-level
	// files (never cached) execute templates on a fully warm build.
	if wc[obs.CounterTemplatesExecuted] >= colCold.Snapshot().Counters[obs.CounterTemplatesExecuted] {
		t.Error("warm build executed as many templates as cold")
	}
	if renderHash(t, cold) != renderHash(t, warm) {
		t.Error("warm render differs from cold render")
	}
	// A cache-disabled render is the ground truth both must match.
	plain, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	if renderHash(t, plain) != renderHash(t, cold) {
		t.Error("cached render differs from cache-disabled render")
	}
}

func TestRenderCacheInvalidatesOnTemplateChange(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	store := cache.NewMemory()
	if _, err := RenderWith(context.Background(), db, Options{Cache: store, Obs: obs.NewCollector()}); err != nil {
		t.Fatal(err)
	}

	// Swap one template's source: every quagga device must re-render.
	prev := ReplaceDeviceTemplates("quagga", append(
		[]DeviceTemplate{{RelPath: "etc/quagga/zebra.conf", When: "zebra",
			Template: tmpl.MustParse("quagga/zebra.conf", "! edited\nhostname ${node.zebra.hostname}\n")}},
		DeviceTemplates("quagga")[1:]...))
	defer ReplaceDeviceTemplates("quagga", prev)

	col := obs.NewCollector()
	fs, err := RenderWith(context.Background(), db, Options{Cache: store, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	c := col.Snapshot().Counters
	if c[obs.CounterRenderCacheMisses] != int64(db.Len()) || c[obs.CounterRenderCacheHits] != 0 {
		t.Errorf("post-template-edit hits/misses = %d/%d, want 0/%d",
			c[obs.CounterRenderCacheHits], c[obs.CounterRenderCacheMisses], db.Len())
	}
	if content, ok := fs.Read("localhost/netkit/r1/etc/quagga/zebra.conf"); !ok || content[:len("! edited")] != "! edited" {
		t.Errorf("edited template not reflected in output: %q", content)
	}
}

func TestSyntaxFingerprintTracksTemplateSet(t *testing.T) {
	base := SyntaxFingerprint("quagga")
	if base == SyntaxFingerprint("ios") {
		t.Error("distinct syntaxes share a fingerprint")
	}
	prev := ReplaceDeviceTemplates("quagga", DeviceTemplates("quagga")[1:])
	changed := SyntaxFingerprint("quagga")
	ReplaceDeviceTemplates("quagga", prev)
	if changed == base {
		t.Error("removing a template did not change the fingerprint")
	}
	if SyntaxFingerprint("quagga") != base {
		t.Error("restoring the template set did not restore the fingerprint")
	}
}

// TestRenderCacheLabTemplateRegistration pins the per-device tier's lab
// contract: lab-level files are never cached, so a lab template registered
// after the store was warmed reaches the very next render, while every
// device — whose key covers only its own syntax's templates — still hits.
func TestRenderCacheLabTemplateRegistration(t *testing.T) {
	db := buildDB(t, "netkit", "quagga")
	store := cache.NewMemory()
	if _, err := RenderWith(context.Background(), db, Options{Cache: store}); err != nil {
		t.Fatal(err)
	}

	prevLab := labTemplates["netkit"]
	RegisterLabTemplate("netkit", labTemplate{
		RelPath:  "extra.conf",
		Template: tmpl.MustParse("lab-extra", "extra for ${lab.host}\n"),
	})
	defer func() { labTemplates["netkit"] = prevLab }()

	col := obs.NewCollector()
	warm, err := RenderWith(context.Background(), db, Options{Cache: store, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := warm.Read("localhost/netkit/extra.conf"); !ok || got != "extra for localhost\n" {
		t.Errorf("lab-template registration did not reach the warm render: %q, %v", got, ok)
	}
	c := col.Snapshot().Counters
	if c[obs.CounterRenderCacheHits] != int64(db.Len()) || c[obs.CounterRenderCacheMisses] != 0 {
		t.Errorf("warm hits/misses = %d/%d, want %d/0",
			c[obs.CounterRenderCacheHits], c[obs.CounterRenderCacheMisses], db.Len())
	}
	plain, err := Render(db)
	if err != nil {
		t.Fatal(err)
	}
	if renderHash(t, plain) != renderHash(t, warm) {
		t.Error("warm render after lab-template registration differs from cache-disabled render")
	}
}
