package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/coll"
	"collsel/internal/store"
)

// encode renders a query sequence byte for byte.
func encode(qs []query) []byte {
	var buf bytes.Buffer
	for _, q := range qs {
		fmt.Fprintf(&buf, "%s\n", q.path())
	}
	return buf.Bytes()
}

func encodeOps(ops []op) []byte {
	var buf bytes.Buffer
	for _, o := range ops {
		if o.observe != nil {
			raw, _ := json.Marshal(o.observe)
			buf.Write(raw)
			buf.WriteByte('\n')
			continue
		}
		fmt.Fprintf(&buf, "%s %v\n", o.q.path(), o.miss)
	}
	return buf.Bytes()
}

func ringOwner(t *testing.T) func(query) bool {
	t.Helper()
	clu, err := cluster.New(cluster.Config{Self: replicaA, Peers: []string{replicaA, replicaB}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	return func(q query) bool {
		owner, _ := clu.Route(cluster.CellKey(q.coll.String(), q.procs, q.bytes, 1.0))
		return owner == replicaB
	}
}

func TestQuerySequencesFollowTheSeed(t *testing.T) {
	owned := ringOwner(t)
	sequences := map[string]func(seed int64, client int) []byte{
		"hot":   func(seed int64, client int) []byte { return encode(hotQueries(seed, client, 5000)) },
		"mixed": func(seed int64, client int) []byte { return encodeOps(mixedOps(seed, client, 2, 5000)) },
		"ring":  func(seed int64, client int) []byte { return encode(ringQueries(seed, client, 5000, owned)) },
	}
	for name, gen := range sequences {
		for client := 0; client < 2; client++ {
			if !bytes.Equal(gen(7, client), gen(7, client)) {
				t.Errorf("%s client %d: seed 7 gave two different sequences", name, client)
			}
			if bytes.Equal(gen(7, client), gen(8, client)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", name, client)
			}
		}
		if bytes.Equal(gen(7, 0), gen(7, 1)) {
			t.Errorf("%s: both clients got the same sequence", name)
		}
	}
}

func TestMixedSequenceShape(t *testing.T) {
	const n = 100000
	pool := map[query]bool{}
	for _, q := range missPool() {
		pool[q] = true
	}
	if len(pool) != 24 {
		t.Fatalf("miss pool has %d distinct keys, want 24", len(pool))
	}
	odd := 0
	for q := range pool {
		if q.bytes%128 != 0 {
			odd++
		}
	}
	if odd <= len(pool)/2 {
		t.Errorf("only %d of %d pool sizes are not multiples of 128", odd, len(pool))
	}
	seen := map[query]bool{}
	for client := 0; client < 2; client++ {
		last := map[coll.Collective]int{}
		for _, q := range firstMisses(client, 2) {
			if seen[q] {
				t.Errorf("pool key %v first-asked by two clients", q)
			}
			seen[q] = true
			if prev, ok := last[q.coll]; ok && q.bytes >= prev {
				t.Errorf("%v first arrives after the smaller %d", q, prev)
			}
			last[q.coll] = q.bytes
		}
	}
	if len(seen) != len(pool) {
		t.Errorf("clients first-ask %d of %d pool keys", len(seen), len(pool))
	}
	misses, observes := 0, 0
	for _, o := range mixedOps(3, 0, 2, n) {
		switch {
		case o.observe != nil:
			observes++
		case o.miss:
			misses++
			if !pool[o.q] {
				t.Fatalf("miss %v is not in the pool", o.q)
			}
		}
	}
	if observes != n/observeEvery {
		t.Errorf("%d observe batches, want %d", observes, n/observeEvery)
	}
	if misses < n/200 || misses > n/50 {
		t.Errorf("%d misses in %d ops, want about 1%%", misses, n)
	}
}

// testTable is a finalized one-section table.
func testTable(t *testing.T, winner string) *store.Table {
	t.Helper()
	tb := &store.Table{Machine: machine, Sections: []store.Section{{
		Collective: coll.Alltoall.String(), Procs: 16,
		Cells: []store.Cell{
			{MsgBytes: 8, Winner: store.AlgoRef{ID: 1, Name: "basic_linear"}},
			{MsgBytes: 1024, Winner: store.AlgoRef{ID: 2, Name: winner}},
		},
	}}}
	if err := tb.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCheckAnswer(t *testing.T) {
	tb := testTable(t, "bruck")
	q := query{coll: coll.Alltoall, procs: 16, bytes: 3000}
	good := answer{Algorithm: store.AlgoRef{ID: 2, Name: "bruck"}, Source: "table", TableVersion: tb.Version}
	if v, msg := checkAnswer(q, good, tb); v != verdictOK {
		t.Fatalf("correct answer: verdict %d (%s)", v, msg)
	}
	wrong := good
	wrong.Algorithm.Name = "linear_sync"
	if v, _ := checkAnswer(q, wrong, tb); v != verdictWrong {
		t.Errorf("injected wrong algorithm: verdict %d, want wrong", v)
	}
	peer := wrong
	peer.Source = "peer"
	if v, _ := checkAnswer(q, peer, tb); v != verdictWrong {
		t.Errorf("wrong peer answer: verdict %d, want wrong", v)
	}
	exact := good
	exact.Exact = true
	if v, _ := checkAnswer(q, exact, tb); v != verdictWrong {
		t.Errorf("bin answer claiming exact: verdict %d, want wrong", v)
	}
	stale := good
	stale.TableVersion = "000000000000"
	if v, _ := checkAnswer(q, stale, tb); v != verdictUnverified {
		t.Errorf("unknown table version: verdict %d, want unverified", v)
	}
	miss := good
	if v, _ := checkAnswer(query{coll: coll.Reduce, procs: 16, bytes: 3000}, miss, tb); v != verdictWrong {
		t.Errorf("table answer for an uncovered query: verdict %d, want wrong", v)
	}
	if v, _ := checkAnswer(q, answer{Source: "model"}, tb); v != verdictExempt {
		t.Errorf("model answer: verdict %d, want exempt", v)
	}
	if v, _ := checkAnswer(q, answer{Source: "cold_cache"}, tb); v != verdictDeferred {
		t.Errorf("cold answer: verdict %d, want deferred", v)
	}
	if v, _ := checkAnswer(q, answer{Source: "guess"}, tb); v != verdictWrong {
		t.Errorf("unknown source: verdict %d, want wrong", v)
	}
}

func TestSelectOnceCountsFailures(t *testing.T) {
	tb := testTable(t, "bruck")
	status, algo := http.StatusOK, "bruck"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"algorithm":{"id":2,"name":%q},"source":"table","table_version":%q}`, algo, tb.Version)
	}))
	defer ts.Close()
	snap := func() []*store.Table { return []*store.Table{tb} }
	q := query{coll: coll.Alltoall, procs: 16, bytes: 3000}
	ctx := context.Background()

	tl := newTally(1)
	tl.selectOnce(ctx, ts.Client(), ts.URL, q, snap, nil)
	if tl.failed != 0 || tl.wrong != 0 || len(tl.selectLat) != 1 {
		t.Fatalf("correct answer counted as failed %d, wrong %d", tl.failed, tl.wrong)
	}
	algo = "linear_sync"
	tl.selectOnce(ctx, ts.Client(), ts.URL, q, snap, nil)
	if tl.wrong != 1 {
		t.Errorf("injected wrong algorithm: wrong = %d, want 1", tl.wrong)
	}
	status = http.StatusTooManyRequests
	tl.selectOnce(ctx, ts.Client(), ts.URL, q, snap, nil)
	status = http.StatusInternalServerError
	tl.selectOnce(ctx, ts.Client(), ts.URL, q, snap, nil)
	if tl.failed != 2 || tl.attempted != 4 {
		t.Errorf("after a 429 and a 500: failed %d of %d, want 2 of 4", tl.failed, tl.attempted)
	}
	tl.observeOnce(ctx, ts.Client(), ts.URL, nil, nil)
	if tl.failed != 3 {
		t.Errorf("observe answered 500: failed = %d, want 3", tl.failed)
	}
}

func TestUnknownTableVersionMakesRunIncorrect(t *testing.T) {
	tb := testTable(t, "bruck")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"algorithm":{"id":2,"name":"bruck"},"source":"table","table_version":"000000000000"}`)
	}))
	defer ts.Close()
	tl := newTally(1)
	tl.selectOnce(context.Background(), ts.Client(), ts.URL, query{coll: coll.Alltoall, procs: 16, bytes: 3000},
		func() []*store.Table { return []*store.Table{tb} }, nil)
	if tl.unverified != 1 {
		t.Fatalf("unknown table version: unverified = %d, want 1", tl.unverified)
	}
	for _, limit := range []float64{0, mixedUnverifiedCap} {
		b := &bench{values: map[string]float64{}, samples: map[string]int{}, unverifiedCap: limit}
		b.account(tl)
		var out bytes.Buffer
		if err := b.report(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("cap %g: a run whose only answer was unverified is reported correct", limit)
		}
	}
	// Within serve-mixed's cap a few unverified answers among many pass.
	many := newTally(0)
	many.selectLat = make([]time.Duration, 10000)
	many.unverified = 5
	b := &bench{values: map[string]float64{}, samples: map[string]int{}, unverifiedCap: mixedUnverifiedCap, attempted: 1}
	b.account(many)
	if len(b.problems) != 0 {
		t.Errorf("5 unverified of 10000 answers under serve-mixed's cap: %v", b.problems)
	}
}

func TestArtifactChecks(t *testing.T) {
	tb := testTable(t, "bruck")
	if err := checkVersion(1, tb); err == nil {
		t.Error("seed 1 accepted a version other than the recorded one")
	}
	if err := checkVersion(2, tb); err != nil {
		t.Errorf("seed 2 has no recorded version: %v", err)
	}
	if err := checkRoundTrip(tb, tb); err != nil {
		t.Errorf("identical tables: %v", err)
	}
	if err := checkRoundTrip(tb, testTable(t, "pairwise")); err == nil {
		t.Error("a different loaded table passed the round-trip check")
	}
	b := &bench{values: map[string]float64{}, samples: map[string]int{}}
	b.checkArtifact(&artifact{compiled: tb, table: testTable(t, "pairwise")})
	if b.wrong != 1 {
		t.Errorf("round-trip mismatch counted %d wrong, want 1", b.wrong)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric lists must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced   bool
		declared []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		b := &bench{traced: c.traced, values: map[string]float64{}, samples: map[string]int{}, attempted: 1}
		var out bytes.Buffer
		if err := b.report(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if len(res.Metrics) != len(c.declared) {
			t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json declares %d", c.traced, len(res.Metrics), len(c.declared))
		}
		for _, d := range c.declared {
			m, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("traced=%v: declared metric %s not emitted", c.traced, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: emitted unit %s, declared %s", d.Name, m.Unit, d.Unit)
			}
		}
	}
}

func TestReportRejectsUndeclaredMetric(t *testing.T) {
	b := &bench{values: map[string]float64{"made_up": 1}, samples: map[string]int{}, attempted: 1}
	if err := b.report(&bytes.Buffer{}); err == nil {
		t.Error("an undeclared metric was reported")
	}
}

func TestWindowedRateIgnoresOneStalledWindow(t *testing.T) {
	start := time.Unix(100, 0)
	p := &phase{tally: newTally(0), start: start, steadyEnd: start.Add(10 * time.Second)}
	for ms := 0; ms < 10000; ms++ {
		if ms >= 3000 && ms < 4000 {
			continue // one second without answers
		}
		p.ends = append(p.ends, start.Add(time.Duration(ms)*time.Millisecond).UnixNano())
	}
	if got := p.windowedRate(); got < 999 || got > 1001 {
		t.Errorf("windowed rate %.1f/s, want 1000/s", got)
	}
}
