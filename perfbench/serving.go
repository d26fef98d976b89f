package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/expt"
	"collsel/internal/model"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
	"collsel/internal/serve"
	"collsel/internal/stats"
	"collsel/internal/store"
)

// Requests per nominal second of --seconds. Runs are fixed-work: the
// request count is a function of --seconds only, so every metric of a run
// (allocations included) measures the same work on both sides of a
// comparison. serve-mixed's foreground is long enough that recompiles
// rarely race promotions; at 12000 a lost swap and its retry changed the
// run's work from run to run (README.md).
const (
	hotPerSecond   = 30000
	mixedPerSecond = 30000
	ringPerSecond  = 20000
)

// mixedUnverifiedCap is the share of serve-mixed answers that may name a
// table version swapped out twice during their round trip.
const mixedUnverifiedCap = 0.001

// quiesceTimeout bounds serve-mixed's wait for background work, far
// above the seconds it takes, so a recompiler that never settles fails the
// run instead of hanging it.
const quiesceTimeout = 90 * time.Second

// setupTimes accumulates the repeated set-ups of one run.
type setupTimes struct{ setup, compile, save, load []float64 }

func (s *setupTimes) add(start time.Time, a *artifact) {
	s.setup = append(s.setup, time.Since(start).Seconds())
	s.compile = append(s.compile, (a.compile + a.save + a.load).Seconds())
	s.save = append(s.save, float64(a.save)/float64(time.Millisecond))
	s.load = append(s.load, float64(a.load)/float64(time.Millisecond))
}

func (b *bench) recordSetup(s *setupTimes) {
	b.set("setup_s", stats.Median(s.setup), len(s.setup))
	b.set("compile_s", stats.Median(s.compile), len(s.compile))
	b.set("store.save_ms", stats.Median(s.save), len(s.save))
	b.set("store.load_ms", stats.Median(s.load), len(s.load))
}

// setupServer brings up one replica serveSetups times — compile, save, load,
// listen, first healthy /healthz — and keeps the last one serving.
func (b *bench) setupServer(ctx context.Context, pl *netmodel.Platform, hc *http.Client) (*replica, *artifact, error) {
	var times setupTimes
	var r *replica
	var a *artifact
	for i := 0; i < serveSetups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
		}
		runner.DefaultCache().Reset()
		dir, err := b.runDir(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if a, err = b.buildArtifact(ctx, pl, filepath.Join(dir, "table.json"), nil); err != nil {
			return nil, nil, err
		}
		ln, err := listen()
		if err != nil {
			return nil, nil, err
		}
		if r, err = startReplica(a.table, a.path, filepath.Join(dir, "wal"), ln, nil); err != nil {
			return nil, nil, err
		}
		if err := r.waitHealthy(ctx, hc); err != nil {
			r.close()
			return nil, nil, err
		}
		times.add(start, a)
		b.spans.add(0, "setup", start, time.Now())
		if err := checkVersion(b.seed, a.table); err != nil {
			r.close()
			return nil, nil, err
		}
		b.checkArtifact(a)
	}
	b.recordSetup(&times)
	return r, a, nil
}

// measured brackets a measured phase: allocation and cell-cache deltas.
type measured struct {
	alloc0 uint64
	cache0 runner.CacheStats
}

func beginMeasured() measured {
	runtime.GC()
	return measured{alloc0: allocatedBytes(), cache0: runner.DefaultCache().Stats()}
}

// finish records the end-to-end metrics shared by the serving workloads
// and the cold-path cell counts of the measured phase. rps is the phase's
// /select throughput.
func (b *bench) finish(m measured, t *tally, rps float64) {
	alloc := allocatedBytes() - m.alloc0
	cache := runner.DefaultCache().Stats()
	n := len(t.selectLat)
	lat := durations(t.selectLat, time.Microsecond)
	b.set("select_rps", rps, n)
	b.set("p50_us", stats.Median(lat), n)
	b.note("p99_us %.1f over %d requests, %d beyond it (not gated)", quantile(lat, 0.99), n, n/100)
	var backed int64
	for src, k := range t.sources {
		if simBacked(src) {
			backed += k
		}
	}
	b.set("sim_backed_share", ratio(backed, int64(n)), n)
	b.set("alloc_mb", float64(alloc)/(1<<20), 1)
	misses := cache.Misses - m.cache0.Misses
	hits := cache.Hits - m.cache0.Hits
	b.set("runner.cells", float64(misses), 1)
	b.set("runner.cache_hit_ratio", ratio(hits, hits+misses), 1)
	b.account(t)
}

// finishHeap records the live heap the servers retain, then peak RSS.
func (b *bench) finishHeap() {
	b.set("live_heap_mb", float64(liveHeapBytes())/(1<<20), 1)
	b.note("peak_rss_mb %.1f (not gated)", peakRSSMB())
}

// snapshotOf returns the answer-check snapshot function for replicas.
func snapshotOf(rs ...*replica) func() []*store.Table {
	return func() []*store.Table {
		out := make([]*store.Table, len(rs))
		for i, r := range rs {
			out[i] = r.handle.Table()
		}
		return out
	}
}

// runServeHot is the serve-hot workload: two closed-loop clients send
// covered /select queries over loopback keep-alive connections.
func runServeHot(ctx context.Context, b *bench) error {
	pl, err := platform()
	if err != nil {
		return err
	}
	clients := clientCount()
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	r, a, err := b.setupServer(ctx, pl, hc)
	if err != nil {
		return err
	}
	defer r.close()

	perClient := hotPerSecond * b.seconds / clients
	seqs := make([][]query, clients)
	for i := range seqs {
		seqs[i] = hotQueries(b.seed, i, perClient)
	}
	snapshot := snapshotOf(r)
	warm(ctx, hc, r.url, seqs)

	m := beginMeasured()
	t := runClients(clients, perClient, func(i int, t *tally) {
		for _, q := range seqs[i] {
			t.selectOnce(ctx, hc, r.url, q, snapshot, b.spans)
		}
	})
	b.finish(m, t.tally, t.windowedRate())
	if b.traced {
		b.traceHot(r, a.table, seqs[0], stats.Median(durations(t.selectLat, time.Microsecond)))
	}
	b.finishHeap()
	return nil
}

// warm sends a few requests per client so connections and lazily built
// server state exist before timing starts.
func warm(ctx context.Context, hc *http.Client, base string, seqs [][]query) {
	t := newTally(0)
	for _, seq := range seqs {
		for _, q := range seq[:min(len(seq), 50)] {
			t.selectOnce(ctx, hc, base, q, func() []*store.Table { return nil }, nil)
		}
	}
}

// traceHot times the layers under a hot answer: Table.Get over the query
// sequence and the in-process handler, whose difference to the loopback
// round trip is the net/http stack.
func (b *bench) traceHot(r *replica, tb *store.Table, seq []query, rttP50 float64) {
	const batches = 5
	var gets []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for _, q := range seq {
			if _, ok := tb.Get(q.coll, q.procs, q.bytes); !ok {
				b.problem("Table.Get misses covered query %v", q)
			}
		}
		t1 := time.Now()
		b.spans.add(0, "store.Table.Get", t0, t1)
		gets = append(gets, float64(t1.Sub(t0).Nanoseconds())/float64(len(seq)))
	}
	b.set("store.get_ns", stats.Median(gets), batches*len(seq))

	n := min(len(seq), 20000)
	h := r.server.Handler()
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, seq[i].path(), nil)
		recs[i] = httptest.NewRecorder()
	}
	lat := make([]float64, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		t0 := time.Now()
		h.ServeHTTP(recs[i], reqs[i])
		lat[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	runtime.ReadMemStats(&ms1)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			b.problem("in-process %v: HTTP %d", seq[i], rec.Code)
			break
		}
	}
	handler := stats.Median(lat)
	b.set("serve.handler_us", handler, n)
	b.set("serve.handler_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), n)
	b.set("serve.loopback_us", rttP50-handler, n)
}

// runServeMixed is the serve-mixed workload: the serve-hot clients, plus
// 1% misses from a fixed pool of uncovered keys and an /observe batch every
// 100th request, timed until refinement and recompilation quiesce.
func runServeMixed(ctx context.Context, b *bench) error {
	pl, err := platform()
	if err != nil {
		return err
	}
	clients := clientCount()
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	r, a, err := b.setupServer(ctx, pl, hc)
	if err != nil {
		return err
	}
	defer r.close()

	// Promotions and recompiles swap the served table while clients read
	// it; an answer counts as unverified only if two swaps fall within its
	// round trip, so a handful per run is the most a correct server gives.
	b.unverifiedCap = mixedUnverifiedCap
	perClient := mixedPerSecond * b.seconds / clients
	seqs := make([][]op, clients)
	hot := make([][]query, clients)
	for i := range seqs {
		seqs[i] = mixedOps(b.seed, i, clients, perClient)
		for _, o := range seqs[i] {
			if o.observe == nil && !o.miss {
				hot[i] = append(hot[i], o.q)
			}
		}
	}
	snapshot := snapshotOf(r)
	warm(ctx, hc, r.url, hot)
	metrics0, err := scrape(hc, r.url)
	if err != nil {
		return err
	}
	feed0 := r.pipeline.Stats()

	m := beginMeasured()
	t := runClients(clients, perClient, func(i int, t *tally) {
		for _, o := range seqs[i] {
			if o.observe != nil {
				t.observeOnce(ctx, hc, r.url, o.observe, b.spans)
				continue
			}
			t.selectOnce(ctx, hc, r.url, o.q, snapshot, b.spans)
		}
	})
	qstart := time.Now()
	qctx, cancel := context.WithTimeout(ctx, quiesceTimeout)
	defer cancel()
	if err := r.quiesce(qctx); err != nil {
		return fmt.Errorf("waiting for background work: %w", err)
	}
	quiesced := time.Since(qstart)
	b.spans.add(0, "quiesce", qstart, qstart.Add(quiesced))
	feed := r.pipeline.Stats()
	b.note("foreground %.2fs, quiesce %.2fs, recompile attempts %d, promoted %d, swaps lost %d",
		t.elapsed.Seconds(), quiesced.Seconds(), feed.RecompileAttempts-feed0.RecompileAttempts,
		feed.RecompileSuccesses-feed0.RecompileSuccesses, feed.SwapsLost-feed0.SwapsLost)
	// A fixed amount of work, foreground and background, over the time it
	// took to finish all of it. Windows would not do here: the refinements
	// are heavy and uneven, so per-window rates spread more than the whole.
	b.finish(m, t.tally, float64(len(t.selectLat))/(t.elapsed+quiesced).Seconds())
	if err := b.checkDeferred(ctx, a.table, t.tally); err != nil {
		return err
	}

	if b.traced {
		metrics1, err := scrape(hc, r.url)
		if err != nil {
			return err
		}
		delta := func(name string) float64 { return metrics1[name] - metrics0[name] }
		computes := delta("collseld_cold_computes_total")
		promotions := delta("collseld_model_promotions_total")
		b.set("serve.model_answers", delta(`collseld_select_source_total{source="model"}`), 1)
		b.set("serve.cold_computes", computes, 1)
		b.set("serve.model_promotions", promotions, 1)
		if computes > 0 {
			b.set("serve.promote_ratio", promotions/computes, int(computes))
		}
		attempts := feed.RecompileAttempts - feed0.RecompileAttempts
		successes := feed.RecompileSuccesses - feed0.RecompileSuccesses
		b.set("feedback.observe_us", stats.Median(durations(t.observeLat, time.Microsecond)), len(t.observeLat))
		b.set("feedback.recompiles", float64(successes), 1)
		b.set("feedback.swaps_lost", float64(feed.SwapsLost-feed0.SwapsLost), 1)
		b.set("feedback.recompile_ratio", ratio(successes, attempts), int(attempts))
		if err := b.traceCold(ctx, pl, r.handle.Table()); err != nil {
			return err
		}
	}
	b.finishHeap()
	return nil
}

// checkDeferred matches every cold-cache or computed answer against the
// benchmark's own serve.Fallback under the served table's provenance.
func (b *bench) checkDeferred(ctx context.Context, tb *store.Table, t *tally) error {
	for q, got := range t.answers {
		cell, err := serve.Fallback(ctx, tb, q.coll, q.procs, q.bytes)
		if err != nil {
			return fmt.Errorf("reference Fallback %v: %w", q, err)
		}
		if cell.Winner.Name != got {
			b.wrong++
			b.problem("%v: cold answer %s, serve.Fallback says %s", q, got, cell.Winner.Name)
		}
	}
	b.note("cold answers checked against serve.Fallback: %d (%d distinct keys)", t.cold, len(t.answers))
	return nil
}

// traceCold times the cold-path layers on every miss-pool key: the model
// estimate, serve.Fallback on an emptied cell cache (multiples of 128 and
// other sizes apart, because expt.SizeToCount caps the element count only
// for the former), the per-cell simulation on one worker, and a promotion
// into the served table at its end-of-run size.
func (b *bench) traceCold(ctx context.Context, pl *netmodel.Platform, served *store.Table) error {
	pool := missPool()
	var modelUs []float64
	for rep := 0; rep < 20; rep++ {
		for _, q := range pool {
			t0 := time.Now()
			_, err := model.Select(model.Spec{Platform: pl, Collective: q.coll, MsgBytes: q.bytes, Procs: q.procs,
				Factor: served.Factor, Seed: served.Seed})
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("model.Select %v: %w", q, err)
			}
			b.spans.add(0, "model.Select", t0, t1)
			modelUs = append(modelUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		}
	}
	b.set("model.select_us", stats.Median(modelUs), len(modelUs))

	var capped, odd, allocs, cellTimes []float64
	for _, q := range pool {
		runner.DefaultCache().Reset()
		a0 := allocatedBytes()
		t0 := time.Now()
		cell, err := serve.Fallback(ctx, served, q.coll, q.procs, q.bytes)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("serve.Fallback %v: %w", q, err)
		}
		allocs = append(allocs, float64(allocatedBytes()-a0)/(1<<20))
		b.spans.add(0, "serve.Fallback", t0, t1)
		ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
		if q.bytes%128 == 0 {
			capped = append(capped, ms)
		} else {
			odd = append(odd, ms)
		}
		// The same selection on one worker, timing each simulated cell.
		spec := store.SpecOf(served, pl, q.coll, q.procs, q.bytes)
		spec.Runner = runner.New(runner.WithWorkers(1))
		last := time.Now()
		spec.Progress = func(_, _ int) {
			now := time.Now()
			cellTimes = append(cellTimes, float64(now.Sub(last))/float64(time.Millisecond))
			last = now
		}
		if _, err := expt.SelectRobustCtx(ctx, spec); err != nil {
			return fmt.Errorf("one-worker re-select %v: %w", q, err)
		}
		if lk, ok := served.Get(q.coll, q.procs, q.bytes); ok && lk.Exact && lk.Cell.Winner != cell.Winner {
			b.wrong++
			b.problem("%v: promoted cell %s, serve.Fallback says %s", q, lk.Cell.Winner.Name, cell.Winner.Name)
		}
	}
	b.set("expt.cold_select_ms", stats.Median(capped), len(capped))
	b.set("expt.cold_select_odd_ms", stats.Median(odd), len(odd))
	b.set("expt.cold_alloc_mb", stats.Median(allocs), len(allocs))
	b.set("microbench.cell_ms", stats.Median(cellTimes), len(cellTimes))

	// Promotion cost at the served table's end-of-run size: insert a cell
	// at a size no query used.
	probe := store.Cell{MsgBytes: 777777, Winner: served.Sections[0].Cells[0].Winner}
	var promote []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := store.WithCell(served, coll.Reduce, missProcs, probe); err != nil {
			return err
		}
		t1 := time.Now()
		b.spans.add(0, "store.WithCell", t0, t1)
		promote = append(promote, float64(t1.Sub(t0))/float64(time.Millisecond))
	}
	b.set("store.promote_ms", stats.Median(promote), len(promote))
	b.note("served table at end of run: version %s, %d cells", served.Version, served.Cells())
	return nil
}

// scrape reads the Prometheus text of /metrics into a name -> value map;
// names keep their label set.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Replica identities on the serve-ring ring. They are fixed names, not
// the listeners' ephemeral ports, so ring ownership — and with it the
// seeded query sequence — is the same in every run; peerTransport maps
// them to the real addresses.
const (
	replicaA = "http://replica-a"
	replicaB = "http://replica-b"
)

// ringSectionSizes is the procs-12 size ladder replica B holds beyond the
// compiled grid. It is the compile ladder without 1 MiB: segmented_ring
// allreduce deadlocks at 12 processes and 1 MiB (README.md), so no
// replica could have promoted that cell. The 256 KiB cell answers up to
// 2.5 MiB, covering every query size.
var ringSectionSizes = []int{8, 64, 1024, 16 * 1024, 256 * 1024}

// peerTransport is cluster's HTTP transport with the replica names
// resolved to their loopback listeners.
func peerTransport(addrs map[string]string) *cluster.HTTPTransport {
	d := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 4,
	}
	return &cluster.HTTPTransport{Client: &http.Client{Timeout: 5 * time.Second, Transport: tr}}
}

// ring is serve-ring's two replicas.
type ring struct{ a, b *replica }

func (g *ring) close() error {
	if g == nil {
		return nil
	}
	return errors.Join(g.a.close(), g.b.close())
}

// withRingSection returns tb plus B's procs-12 section, each cell computed
// by serve.Fallback and installed with store.WithCell, as B's own
// promotions would have.
func withRingSection(ctx context.Context, tb *store.Table) (*store.Table, error) {
	out := tb
	for _, c := range gridCollectives {
		for _, s := range ringSectionSizes {
			cell, err := serve.Fallback(ctx, tb, c, missProcs, s)
			if err != nil {
				return nil, fmt.Errorf("ring section %v/%d/%d: %w", c, missProcs, s, err)
			}
			if out, err = store.WithCell(out, c, missProcs, cell); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// startRing brings up both replicas once and returns them healthy.
func (b *bench) startRing(ctx context.Context, pl *netmodel.Platform, hc *http.Client, dir string) (*ring, *artifact, *store.Table, error) {
	a, err := b.buildArtifact(ctx, pl, filepath.Join(dir, "a.json"), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	bTable, err := withRingSection(ctx, a.table)
	if err != nil {
		return nil, nil, nil, err
	}
	b.spans.add(0, "ring.section", t0, time.Now())
	bLoaded, _, _, err := b.saveLoad(0, bTable, filepath.Join(dir, "b.json"))
	if err != nil {
		return nil, nil, nil, err
	}
	lnA, err := listen()
	if err != nil {
		return nil, nil, nil, err
	}
	lnB, err := listen()
	if err != nil {
		lnA.Close()
		return nil, nil, nil, err
	}
	addrs := map[string]string{"replica-a:80": lnA.Addr().String(), "replica-b:80": lnB.Addr().String()}
	var reps [2]*replica
	for i, self := range []string{replicaA, replicaB} {
		clu, err := cluster.New(cluster.Config{
			Self:        self,
			Peers:       []string{replicaA, replicaB},
			HedgeDelay:  50 * time.Millisecond,
			RetryBudget: cluster.DefaultRetryBudget,
			Health:      cluster.HealthConfig{Interval: time.Second},
			Transport:   peerTransport(addrs),
		})
		if err != nil {
			return nil, nil, nil, err
		}
		tb, path, ln := a.table, a.path, lnA
		if i == 1 {
			tb, path, ln = bLoaded, filepath.Join(dir, "b.json"), lnB
		}
		if reps[i], err = startReplica(tb, path, filepath.Join(dir, fmt.Sprintf("wal-%d", i)), ln, clu); err != nil {
			if i == 1 {
				reps[0].close()
			} else {
				lnB.Close()
			}
			return nil, nil, nil, err
		}
	}
	g := &ring{a: reps[0], b: reps[1]}
	for _, r := range reps {
		if err := r.waitHealthy(ctx, hc); err != nil {
			g.close()
			return nil, nil, nil, err
		}
	}
	return g, a, bLoaded, nil
}

// runServeRing is the serve-ring workload: two replicas on a
// consistent-hash ring; the clients load replica A only, with covered
// queries and procs-12 queries B owns, which A must forward.
func runServeRing(ctx context.Context, b *bench) error {
	pl, err := platform()
	if err != nil {
		return err
	}
	clients := clientCount()
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	var times setupTimes
	var g *ring
	var a *artifact
	var bTable *store.Table
	for i := 0; i < serveSetups; i++ {
		if err := g.close(); err != nil {
			return err
		}
		runner.DefaultCache().Reset()
		dir, err := b.runDir(fmt.Sprintf("setup-%d", i))
		if err != nil {
			return err
		}
		start := time.Now()
		if g, a, bTable, err = b.startRing(ctx, pl, hc, dir); err != nil {
			return err
		}
		times.add(start, a)
		b.spans.add(0, "setup", start, time.Now())
		if err := checkVersion(b.seed, a.table); err != nil {
			g.close()
			return err
		}
		b.checkArtifact(a)
	}
	defer g.close()
	b.recordSetup(&times)

	factor := a.table.Factor
	ownedByB := func(q query) bool {
		owner, _ := g.a.cluster.Route(cluster.CellKey(q.coll.String(), q.procs, q.bytes, factor))
		return owner == replicaB
	}
	perClient := ringPerSecond * b.seconds / clients
	seqs := make([][]query, clients)
	for i := range seqs {
		seqs[i] = ringQueries(b.seed, i, perClient, ownedByB)
	}
	// Only B's table answers forwarded queries; B's handle never changes
	// because B itself receives no misses.
	snapshot := snapshotOf(g.a, g.b)
	warm(ctx, hc, g.a.url, seqs)
	clu0 := g.a.cluster.Stats()

	m := beginMeasured()
	t := runClients(clients, perClient, func(i int, t *tally) {
		for _, q := range seqs[i] {
			t.selectOnce(ctx, hc, g.a.url, q, snapshot, b.spans)
		}
	})
	b.finish(m, t.tally, t.windowedRate())
	if err := b.checkDeferred(ctx, a.table, t.tally); err != nil {
		return err
	}
	if g.b.handle.Table() != bTable {
		b.problem("replica B's table changed during the run")
	}
	if b.traced {
		clu := g.a.cluster.Stats()
		b.set("cluster.forwards", float64(clu.Forwards-clu0.Forwards), 1)
		b.set("cluster.hedges", float64(clu.Hedges-clu0.Hedges), 1)
		b.set("cluster.forward_errors", float64(clu.ForwardErrors-clu0.ForwardErrors), 1)
		b.set("cluster.forward_us", stats.Median(durations(t.peerLat, time.Microsecond)), len(t.peerLat))
	}
	b.finishHeap()
	return nil
}
