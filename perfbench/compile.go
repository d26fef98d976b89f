package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
	"collsel/internal/stats"
	"collsel/internal/store"
)

// seedOneVersion is the artifact version `compilestore -machine Hydra
// -procs 16,32 -seed 1` writes; the compile workload must reproduce it.
const seedOneVersion = "a050d0c371dd"

// compileSeconds is the nominal length of one compile on a 2-vCPU
// machine; a run compiles seconds/compileSeconds times, at least compileReps.
const compileSeconds = 5

// resampled is how many grid points an untraced run re-selects on a
// fresh engine to check the compiled cells; a traced run re-selects all.
const resampled = 3

// ratePoints is the fixed set of grid points whose one-worker
// re-selection gives the compile workload's select_rps. It is the same
// work for every seed and is timed apart from the two-worker compiles that
// compile_s times.
func ratePoints() []gridPoint {
	var pts []gridPoint
	for _, c := range gridCollectives {
		for _, s := range rateSizes {
			pts = append(pts, gridPoint{c, gridProcs[0], s})
		}
	}
	return pts
}

var rateSizes = []int{1024, 16 * 1024}

// checkVersion fails when a seed-1 compile does not reproduce the
// recorded artifact version.
func checkVersion(seed int64, tb *store.Table) error {
	if seed == 1 && tb.Version != seedOneVersion {
		return fmt.Errorf("seed 1 compiled version %s, want %s", tb.Version, seedOneVersion)
	}
	return nil
}

// checkRoundTrip fails when the table read back from disk differs from
// the table that was compiled.
func checkRoundTrip(compiled, loaded *store.Table) error {
	if compiled.Version != loaded.Version || !reflect.DeepEqual(compiled.Sections, loaded.Sections) {
		return fmt.Errorf("artifact %s did not round-trip through Save and LoadWithFallback (loaded %s)", compiled.Version, loaded.Version)
	}
	return nil
}

// checkArtifact counts an artifact that did not round-trip as a wrong
// answer.
func (b *bench) checkArtifact(a *artifact) {
	b.attempted++
	if err := checkRoundTrip(a.compiled, a.table); err != nil {
		b.wrong++
		b.problem("%v", err)
	}
}

// gridPoint is one compiled (collective, procs, size) cell coordinate.
type gridPoint struct {
	coll  coll.Collective
	procs int
	bytes int
}

func gridPoints() []gridPoint {
	var pts []gridPoint
	for _, c := range gridCollectives {
		for _, p := range gridProcs {
			for _, s := range store.DefaultSizes() {
				pts = append(pts, gridPoint{c, p, s})
			}
		}
	}
	return pts
}

// pointTimer turns store.Compile's per-cell progress into per-grid-point
// latencies: Compile selects one grid point at a time, so a point is done
// when the cell count reaches its cumulative boundary. The runner engine
// serializes progress calls.
type pointTimer struct {
	bounds    []int
	last      time.Time
	latencies []time.Duration
}

func newPointTimer() *pointTimer {
	pt := &pointTimer{}
	total := 0
	for _, p := range gridPoints() {
		total += len(expt.CandidateAlgorithms(p.coll)) * 9 // no-delay + eight patterns
		pt.bounds = append(pt.bounds, total)
	}
	return pt
}

func (pt *pointTimer) start() { pt.last = time.Now() }

func (pt *pointTimer) progress(done, _ int) {
	if len(pt.bounds) > 0 && done >= pt.bounds[0] {
		now := time.Now()
		pt.latencies = append(pt.latencies, now.Sub(pt.last))
		pt.last = now
		pt.bounds = pt.bounds[1:]
	}
}

// runCompile is the compile workload: store.Compile of the Hydra 16/32
// table on two runner workers with a fresh cell cache, then Save and
// LoadWithFallback. Compiling is this workload's set-up as much as its
// work, so every compile is one set-up sample (time to the first servable
// answer: a Get on the loaded table) and one measured sample.
func runCompile(ctx context.Context, b *bench) error {
	pl, err := platform()
	if err != nil {
		return err
	}
	compiles := max(compileReps, b.seconds/compileSeconds)
	var setups, totals, saves, loads, points []float64
	var last *artifact
	var cells, hits int64
	a0 := allocatedBytes()
	for i := 0; i < compiles; i++ {
		dir, err := b.runDir(fmt.Sprintf("compile-%d", i))
		if err != nil {
			return err
		}
		pt := newPointTimer()
		t0 := time.Now()
		pt.start()
		a, err := b.buildArtifact(ctx, pl, dir+"/table.json", pt.progress)
		if err != nil {
			return err
		}
		if _, ok := a.table.Get(coll.Reduce, gridProcs[0], minQueryBytes); !ok {
			return fmt.Errorf("loaded table cannot answer its first query")
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(pt.latencies) != len(gridPoints()) {
			return fmt.Errorf("timed %d grid points, want %d", len(pt.latencies), len(gridPoints()))
		}
		totals = append(totals, (a.compile + a.save + a.load).Seconds())
		saves = append(saves, float64(a.save)/float64(time.Millisecond))
		loads = append(loads, float64(a.load)/float64(time.Millisecond))
		points = append(points, durations(pt.latencies, time.Microsecond)...)
		cells += a.cache.Misses
		hits += a.cache.Hits
		if err := checkVersion(b.seed, a.table); err != nil {
			return err
		}
		b.checkArtifact(a)
		if last != nil && last.table.Version != a.table.Version {
			return fmt.Errorf("two compiles of one seed gave versions %s and %s", last.table.Version, a.table.Version)
		}
		last = a
	}
	alloc := allocatedBytes() - a0
	b.set("setup_s", stats.Median(setups), len(setups))
	b.set("compile_s", stats.Median(totals), len(totals))
	b.note("p99_us %.1f over %d grid points (not gated)", quantile(append([]float64(nil), points...), 0.99), len(points))
	b.set("p50_us", stats.Median(points), len(points))
	b.set("sim_backed_share", 1, len(points)) // every compiled answer is simulated
	b.set("alloc_mb", float64(alloc)/(1<<20), compiles)
	b.set("store.save_ms", stats.Median(saves), len(saves))
	b.set("store.load_ms", stats.Median(loads), len(loads))
	b.set("runner.cells", float64(cells)/float64(compiles), compiles)
	b.set("runner.cache_hit_ratio", ratio(hits, hits+cells), compiles)

	if err := b.reselect(ctx, pl, last.table); err != nil {
		return err
	}
	b.set("live_heap_mb", float64(liveHeapBytes())/(1<<20), 1)
	b.note("peak_rss_mb %.1f (not gated)", peakRSSMB())
	b.note("artifact version %s, %d cells", last.table.Version, last.table.Cells())
	return nil
}

// reselect re-runs grid points of the loaded table through store.SpecOf
// and expt.SelectRobustCtx on a fresh one-worker engine and checks each
// against its compiled cell: the fixed ratePoints, whose selections per
// second are select_rps, then a seeded sample. A traced run checks every
// point and times the expt and microbench layers from them.
func (b *bench) reselect(ctx context.Context, pl *netmodel.Platform, tb *store.Table) error {
	rate := ratePoints()
	pts := append([]gridPoint(nil), rate...)
	rest := gridPoints()
	if !b.traced {
		r := rand.New(rand.NewSource(b.seed))
		r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		rest = rest[:resampled]
	}
	for _, p := range rest {
		if !slices.Contains(rate, p) {
			pts = append(pts, p)
		}
	}
	var selects, cellTimes []float64
	var rateTime time.Duration
	for i, p := range pts {
		lk, ok := tb.Get(p.coll, p.procs, p.bytes)
		if !ok || !lk.Exact {
			return fmt.Errorf("compiled table lacks grid point %v", p)
		}
		spec := store.SpecOf(tb, pl, p.coll, p.procs, p.bytes)
		spec.Runner = runner.New(runner.WithWorkers(1))
		last := time.Now()
		spec.Progress = func(_, _ int) {
			now := time.Now()
			cellTimes = append(cellTimes, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
		}
		t0 := time.Now()
		out, err := expt.SelectRobustCtx(ctx, spec)
		t1 := time.Now()
		b.attempted++
		if err != nil {
			return fmt.Errorf("re-select %v: %w", p, err)
		}
		b.spans.add(0, "expt.SelectRobustCtx", t0, t1)
		selects = append(selects, float64(t1.Sub(t0))/float64(time.Millisecond))
		if i < len(rate) {
			rateTime += t1.Sub(t0)
		}
		if got := store.CellFromOutcome(p.bytes, out); !reflect.DeepEqual(got, lk.Cell) {
			b.wrong++
			b.problem("re-selected %v picks %s, compiled cell says %s", p, got.Winner.Name, lk.Cell.Winner.Name)
		}
	}
	b.set("select_rps", float64(len(rate))/rateTime.Seconds(), len(rate))
	if b.traced {
		b.set("expt.select_ms", stats.Median(selects), len(selects))
		b.set("microbench.cell_ms", stats.Median(cellTimes), len(cellTimes))
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
