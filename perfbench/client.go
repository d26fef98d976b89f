package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"collsel/internal/serve"
	"collsel/internal/stats"
	"collsel/internal/store"
)

// clientCount is the closed-loop client count: one per CPU, at most two.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// answer is the part of a /select response the checks read.
type answer struct {
	Algorithm    store.AlgoRef `json:"algorithm"`
	Source       string        `json:"source"`
	Exact        bool          `json:"exact"`
	TableVersion string        `json:"table_version"`
}

// simBacked reports whether an answer source is backed by simulation; the
// rest are model estimates or nearest-cell degradations.
func simBacked(source string) bool {
	switch source {
	case "table", "cold_cache", "peer", "computed":
		return true
	}
	return false
}

// verdict is the outcome of checking one answer.
type verdict int

const (
	verdictOK         verdict = iota
	verdictWrong              // the algorithm differs from the reference
	verdictUnverified         // the answering table version was no longer reachable
	verdictDeferred           // a cold answer, checked against serve.Fallback after the run
	verdictExempt             // a model or degraded answer: counted, not matched
)

// checkAnswer matches one 200 answer against the benchmark's own
// reference: for table and peer answers, Table.Get on the table whose
// version the answer names, taken from the candidate snapshots.
func checkAnswer(q query, a answer, tables ...*store.Table) (verdict, string) {
	switch a.Source {
	case "model", "nearest-degraded":
		return verdictExempt, ""
	case "cold_cache", "computed":
		return verdictDeferred, ""
	case "table", "peer":
	default:
		return verdictWrong, fmt.Sprintf("%v: unknown answer source %q", q, a.Source)
	}
	for _, t := range tables {
		if t == nil || t.Version != a.TableVersion {
			continue
		}
		lk, ok := t.Get(q.coll, q.procs, q.bytes)
		if !ok {
			return verdictWrong, fmt.Sprintf("%v: %s answer but table %s does not cover it", q, a.Source, t.Version)
		}
		if lk.Cell.Winner.Name != a.Algorithm.Name || lk.Exact != a.Exact {
			return verdictWrong, fmt.Sprintf("%v: %s answered %s (exact %v), table %s says %s (exact %v)",
				q, a.Source, a.Algorithm.Name, a.Exact, t.Version, lk.Cell.Winner.Name, lk.Exact)
		}
		return verdictOK, ""
	}
	return verdictUnverified, ""
}

// tally accumulates one client's outcomes; merged after the clients stop.
type tally struct {
	selectLat  []time.Duration
	ends       []int64         // completion times of the answered /select, Unix ns
	peerLat    []time.Duration // serve-ring: requests answered by the peer
	observeLat []time.Duration
	sources    map[string]int64
	cold       int64            // cold answers, checked against serve.Fallback after the run
	answers    map[query]string // the algorithm each cold-answered query got
	attempted  int64
	failed     int64
	wrong      int64
	unverified int64
	problems   []string
}

func newTally(n int) *tally {
	return &tally{selectLat: make([]time.Duration, 0, n), ends: make([]int64, 0, n),
		sources: map[string]int64{}, answers: map[query]string{}}
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.selectLat = append(t.selectLat, o.selectLat...)
	t.ends = append(t.ends, o.ends...)
	t.peerLat = append(t.peerLat, o.peerLat...)
	t.observeLat = append(t.observeLat, o.observeLat...)
	for k, v := range o.sources {
		t.sources[k] += v
	}
	t.cold += o.cold
	for k, v := range o.answers {
		t.answers[k] = v
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.unverified += o.unverified
	t.problems = append(t.problems, o.problems...)
}

// selectOnce sends one /select and checks the answer. snapshot returns
// the tables a table or peer answer may legitimately come from; it is read
// before and after the request so a concurrent swap cannot hide the
// answering version.
func (t *tally) selectOnce(ctx context.Context, hc *http.Client, base string, q query, snapshot func() []*store.Table, spans *spanLog) {
	before := snapshot()
	t.attempted++
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+q.path(), nil)
	if err != nil {
		t.failed++
		t.problem("%v: %v", q, err)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.failed++
		t.problem("%v: %v", q, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	spans.add(0, "http.select", start, end)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.failed++
		t.problem("%v: HTTP %d %s %v", q, resp.StatusCode, bytes.TrimSpace(body), err)
		return
	}
	lat := end.Sub(start)
	t.selectLat = append(t.selectLat, lat)
	t.ends = append(t.ends, end.UnixNano())
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		t.failed++
		t.problem("%v: undecodable answer: %v", q, err)
		return
	}
	t.sources[a.Source]++
	if a.Source == "peer" {
		t.peerLat = append(t.peerLat, lat)
	}
	v, msg := checkAnswer(q, a, append(before, snapshot()...)...)
	switch v {
	case verdictWrong:
		t.wrong++
		t.problem("%s", msg)
	case verdictUnverified:
		t.unverified++
	case verdictDeferred:
		t.cold++
		t.answers[q] = a.Algorithm.Name
	}
}

// observeOnce posts one /observe batch; anything but 202 is a failure.
func (t *tally) observeOnce(ctx context.Context, hc *http.Client, base string, obs []serve.Observation, spans *spanLog) {
	t.attempted++
	payload, err := json.Marshal(serve.ObserveRequest{Observations: obs})
	if err != nil {
		t.failed++
		t.problem("observe: %v", err)
		return
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/observe", bytes.NewReader(payload))
	if err != nil {
		t.failed++
		t.problem("observe: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		t.failed++
		t.problem("observe: %v", err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	spans.add(0, "http.observe", start, end)
	if resp.StatusCode != http.StatusAccepted {
		t.failed++
		t.problem("observe: HTTP %d %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	t.observeLat = append(t.observeLat, end.Sub(start))
}

// phase is a finished closed-loop phase: the merged tally, its wall time,
// and the window in which every client was still sending.
type phase struct {
	*tally
	start, steadyEnd time.Time
	elapsed          time.Duration
}

// rateWindows is how many equal windows windowedRate splits a phase into.
const rateWindows = 10

// windowedRate is the median over rateWindows equal windows of the
// completions per second while every client was still sending. A burst of
// interference on the shared machine moves one window, not the median.
func (p *phase) windowedRate() float64 {
	span := p.steadyEnd.Sub(p.start)
	if span <= 0 {
		return 0
	}
	counts := make([]float64, rateWindows)
	width := span / rateWindows
	for _, e := range p.ends {
		if i := int(time.Duration(e-p.start.UnixNano()) / width); i >= 0 && i < rateWindows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return stats.Median(counts)
}

// runClients runs one closed loop per client: each sends its next request
// only after the previous answer arrived. body runs client i's whole
// sequence against its own tally; runClients returns once every client
// has finished.
func runClients(clients, perClient int, body func(client int, t *tally)) *phase {
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range tallies {
		tallies[i] = newTally(perClient)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, tallies[i])
		}(i)
	}
	wg.Wait()
	p := &phase{tally: newTally(0), start: start, elapsed: time.Since(start), steadyEnd: time.Now()}
	for _, t := range tallies {
		if n := len(t.ends); n > 0 && time.Unix(0, t.ends[n-1]).Before(p.steadyEnd) {
			p.steadyEnd = time.Unix(0, t.ends[n-1])
		}
		p.merge(t)
	}
	return p
}

// account folds a finished measured phase's answer counts into the run.
func (b *bench) account(t *tally) {
	b.attempted += t.attempted
	b.failed += t.failed
	b.wrong += t.wrong
	b.unverified += t.unverified
	if limit := int64(b.unverifiedCap * float64(len(t.selectLat))); t.unverified > limit {
		b.problem("%d answers named a table version no serving handle held (%d allowed)", t.unverified, limit)
	}
	for _, p := range t.problems {
		b.problem("%s", p)
	}
	for _, src := range sortedKeys(t.sources) {
		b.note("answers source=%s %d", src, t.sources[src])
	}
}
