// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed for a fixed time, checks the program's outputs,
// and prints one JSON result line: the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run plus the tracing
// overhead. README.md describes the workloads and metrics; run.py builds
// and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set. setups is how many times a run sets
// the workload up (setup_s is their median). meanCenter reports the mean
// of the primary samples as their centre instead of the median, for a
// workload whose primary samples fall in two modes of about equal weight,
// where the median jumps between the modes from run to run. tailQ and
// tail2Q fix the quantile each workload reports as its primary and
// secondary tail: the highest one that keeps at least ten samples beyond
// it at the sample counts a run gets on a 2-core machine.
type workload struct {
	name          string
	run           func(*bench) error
	setups        int
	meanCenter    bool
	tailQ, tail2Q float64
}

var workloads = []workload{
	{"nren-build", runNRENBuild, 3, false, 0.6, 0.6},
	{"lab-churn", runLabChurn, 3, true, 0.75, 0.9},
	{"cluster-churn", runClusterChurn, 15, false, 0.9, 0.9},
}

// center is the workload's centre of xs: the median, or the mean where
// meanCenter is set.
func (w *workload) center(xs []float64) float64 {
	if w.meanCenter {
		return mean(xs)
	}
	return quantile(xs, 0.5)
}

// bench carries one run's inputs, tracer and measurements.
type bench struct {
	rng      *rand.Rand
	seconds  time.Duration
	setups   int
	traceRun bool
	workDir  string
	tr       *tracer

	attempted, failed int
	setup             []float64 // seconds per set-up
	// Operation latencies in milliseconds. The primary operation is the
	// workload's main one; the secondary is the one paired with it.
	primary, secondary             []float64
	tracedPrimary, tracedSecondary []float64
	layers                         map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// startOp starts the next operation, traced or not, and returns traced. A
// traced run traces its set-ups and half of its operations, chosen so the
// untraced half sees the same inputs and machine state; the difference
// between the halves is the tracing overhead.
func (b *bench) startOp(traced bool) bool {
	b.tr.on = traced
	b.tr.startOp()
	return traced
}

// sample records one primary or secondary latency.
func (b *bench) sample(secondary, traced bool, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	switch {
	case secondary && traced:
		b.tracedSecondary = append(b.tracedSecondary, ms)
	case secondary:
		b.secondary = append(b.secondary, ms)
	case traced:
		b.tracedPrimary = append(b.tracedPrimary, ms)
	default:
		b.primary = append(b.primary, ms)
	}
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (b *bench) layer(name string, v float64, unit string) {
	b.layers[name] = metric{Value: v, Unit: unit}
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// conform checks the metrics against the benchmark definition: every
// metric emitted must be declared there with the same unit, and every
// declared one must be present. A per-layer metric of a layer the
// workload never calls is reported as 0.
func conform(metrics map[string]metric, specPath string, perLayer bool) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	declared := spec.EndToEnd
	if perLayer {
		declared = spec.PerLayer
	}
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
		if _, ok := metrics[d.Name]; !ok && perLayer {
			metrics[d.Name] = metric{0, d.Unit}
		}
	}
	for name, m := range metrics {
		unit, ok := units[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not declared in %s", name, specPath)
		case unit != m.Unit:
			return fmt.Errorf("metric %s has unit %s, %s declares %s", name, m.Unit, specPath, unit)
		}
	}
	if len(metrics) != len(units) {
		return fmt.Errorf("%d metrics measured, %s declares %d", len(metrics), specPath, len(units))
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: nren-build, lab-churn or cluster-churn")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run printing per-layer metrics")
	workDir := flag.String("work", ".bench_build", "directory for temporary files and the span dump")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition naming every metric and its unit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <nren-build|lab-churn|cluster-churn> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	b := &bench{
		rng:      rand.New(rand.NewSource(*seed)),
		seconds:  time.Duration(*seconds) * time.Second,
		setups:   w.setups,
		traceRun: *trace == 1,
		workDir:  *workDir,
		tr:       newTracer(),
		layers:   map[string]metric{},
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if len(b.primary) == 0 || len(b.secondary) == 0 || len(b.setup) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run too short to measure\n", w.name)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	metrics := map[string]metric{}
	if b.traceRun {
		if err := b.tr.write(filepath.Join(b.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		metrics = b.layers
		p, tp := w.center(b.primary), w.center(b.tracedPrimary)
		metrics["untraced.primary_center_ms"] = metric{p, "ms"}
		metrics["traced.primary_center_ms"] = metric{tp, "ms"}
		metrics["untraced.secondary_p50_ms"] = metric{quantile(b.secondary, 0.5), "ms"}
		metrics["traced.secondary_p50_ms"] = metric{quantile(b.tracedSecondary, 0.5), "ms"}
		metrics["trace.overhead_pct"] = metric{100 * (tp/p - 1), "%"}
	} else {
		metrics["setup_s"] = metric{quantile(b.setup, 0.5), "s"}
		metrics["primary_center_ms"] = metric{w.center(b.primary), "ms"}
		metrics["primary_tail_ms"] = metric{quantile(b.primary, w.tailQ), "ms"}
		metrics["secondary_p50_ms"] = metric{quantile(b.secondary, 0.5), "ms"}
		metrics["secondary_tail_ms"] = metric{quantile(b.secondary, w.tail2Q), "ms"}
		metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	if err := conform(metrics, *specPath, b.traceRun); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d set-ups, %d primary and %d secondary samples (tail quantiles %.2f, %.2f)\n",
		w.name, *seed, len(b.setup), len(b.primary)+len(b.tracedPrimary), len(b.secondary)+len(b.tracedSecondary), w.tailQ, w.tail2Q)
	out, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
