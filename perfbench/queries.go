package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"collsel/internal/coll"
	"collsel/internal/serve"
	"collsel/internal/store"
)

// The compiled grid: what `compilestore -machine Hydra -procs 16,32` builds
// (reduce/allreduce/alltoall x procs 16, 32 x store.DefaultSizes).
const machine = "Hydra"

var (
	gridCollectives = []coll.Collective{coll.Reduce, coll.Allreduce, coll.Alltoall}
	gridProcs       = []int{16, 32}
)

const (
	minQueryBytes = 8
	maxQueryBytes = 1 << 20
	// missProcs is the communicator size of every uncovered query. 12 keeps
	// the odd-size cold selections within memory (see README.md).
	missProcs = 12
	// missPoolSeed fixes the miss-key pool across input seeds: the seed
	// picks which pool keys a client asks for, not the pool itself.
	missPoolSeed = 20240412
)

// query is one /select request.
type query struct {
	coll  coll.Collective
	procs int
	bytes int
}

func (q query) path() string {
	return fmt.Sprintf("/select?collective=%s&msg_bytes=%d&procs=%d", q.coll, q.bytes, q.procs)
}

// streamRand derives an independent generator for one (seed, stream,
// client) triple, so adding a client or a stream never shifts another's
// sequence.
func streamRand(seed int64, stream string, client int) *rand.Rand {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(client))
	h.Write(buf[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// logUniform draws a size log-uniformly from [lo, hi].
func logUniform(r *rand.Rand, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	n := int(v)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// hotQuery draws one covered query: uniform over collectives x compiled
// procs, log-uniform size, so most answers come from a size bin.
func hotQuery(r *rand.Rand) query {
	return query{
		coll:  gridCollectives[r.Intn(len(gridCollectives))],
		procs: gridProcs[r.Intn(len(gridProcs))],
		bytes: logUniform(r, minQueryBytes, maxQueryBytes),
	}
}

// hotQueries is serve-hot's sequence for one client.
func hotQueries(seed int64, client, n int) []query {
	r := streamRand(seed, "hot", client)
	qs := make([]query, n)
	for i := range qs {
		qs[i] = hotQuery(r)
	}
	return qs
}

// missPool returns the 24 uncovered keys serve-mixed draws its misses
// from: 3 collectives x 8 sizes at missProcs. Six sizes are not multiples
// of 128, as real traffic mostly is; two are multiples of 128 above 1 KiB,
// so the per-layer trace can set the two SizeToCount paths side by side.
func missPool() []query {
	r := rand.New(rand.NewSource(missPoolSeed))
	var sizes []int
	for len(sizes) < 6 {
		s := logUniform(r, 100, maxQueryBytes-1)
		if s%128 == 0 {
			s++
		}
		sizes = append(sizes, s)
	}
	for len(sizes) < 8 {
		sizes = append(sizes, logUniform(r, 2048, maxQueryBytes-1)/128*128)
	}
	var pool []query
	for _, c := range gridCollectives {
		for _, s := range sizes {
			pool = append(pool, query{coll: c, procs: missProcs, bytes: s})
		}
	}
	return pool
}

// op is one serve-mixed client operation: a /select or an /observe batch.
type op struct {
	q       query
	miss    bool
	observe []serve.Observation
}

const (
	// observeEvery makes every 100th request per client an /observe batch.
	observeEvery = 100
	// missPerMille is the share of /select requests that miss the table.
	missPerMille = 10
	// driftedCells is how many compiled cells the observations drift.
	driftedCells = 6
)

// driftPlan picks, from a seed, the compiled cells the /observe batches
// drift and the imbalance each is observed at. Every imbalance is at least
// 0.5 away from the compiled factor 1.0, past the 0.25 recompile threshold.
func driftPlan(seed int64) []serve.Observation {
	r := streamRand(seed, "drift", 0)
	var grid []serve.Observation
	for _, c := range gridCollectives {
		for _, p := range gridProcs {
			for _, s := range store.DefaultSizes() {
				grid = append(grid, serve.Observation{Collective: c.String(), Procs: p, MsgBytes: s})
			}
		}
	}
	r.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	plan := grid[:driftedCells]
	for i := range plan {
		plan[i].Imbalance = 1.5 + 0.25*float64(r.Intn(7)) // 1.5 .. 3.0
		plan[i].Count = 8
	}
	return plan
}

// mixedOps is serve-mixed's sequence for one client. The seed varies the
// covered queries only; where the misses fall, which pool keys they ask
// for and which cells the observations drift come from missPoolSeed.
//
// The misses are laid out so that every seed asks the server for the same
// background work. A promoted cell answers every larger size of its
// section (up to the next cell), so a miss costs a refinement — 40 ms to
// seconds of simulation — only if no smaller key of its collective has
// been promoted yet. Each collective's keys therefore belong to one client
// and first arrive largest first, spread evenly over the run so the cold
// queue (two workers, eight waiting) never sheds them. Every other miss
// repeats a key this client has already asked for.
func mixedOps(seed int64, client, clients, n int) []op {
	hot := streamRand(seed, "mixed", client)
	bg := streamRand(missPoolSeed, "mixed", client)
	first := firstMisses(client, clients)
	drift := driftPlan(missPoolSeed)
	ops := make([]op, n)
	batches, asked := 0, 0
	for i := range ops {
		switch {
		case i%observeEvery == observeEvery-1:
			o := drift[(client+batches)%len(drift)]
			ops[i].observe = []serve.Observation{o, o}
			batches++
		case asked < len(first) && i >= (asked+1)*n/(len(first)+1):
			ops[i] = op{q: first[asked], miss: true}
			asked++
		case bg.Intn(1000) < missPerMille && asked > 0:
			ops[i] = op{q: first[bg.Intn(asked)], miss: true}
		default:
			ops[i].q = hotQuery(hot)
		}
	}
	return ops
}

// firstMisses lists the pool keys one client owns, in the order they
// first arrive: collectives dealt round-robin to the clients, and within
// them sizes from largest to smallest, interleaving the collectives.
func firstMisses(client, clients int) []query {
	var owned [][]query
	pool := missPool()
	for i, c := range gridCollectives {
		if i%clients != client {
			continue
		}
		var keys []query
		for _, q := range pool {
			if q.coll == c {
				keys = append(keys, q)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].bytes > keys[j].bytes })
		owned = append(owned, keys)
	}
	var out []query
	for rank := 0; len(owned) > 0 && rank < len(owned[0]); rank++ {
		for _, keys := range owned {
			out = append(out, keys[rank])
		}
	}
	return out
}

// ringQueries is serve-ring's sequence for replica A's client: covered
// queries, plus one in four at missProcs whose ring owner is replica B
// (owner reports the owning peer for a query).
func ringQueries(seed int64, client, n int, ownedByB func(query) bool) []query {
	r := streamRand(seed, "ring", client)
	qs := make([]query, n)
	for i := range qs {
		if r.Intn(4) != 0 {
			qs[i] = hotQuery(r)
			continue
		}
		for {
			q := query{coll: gridCollectives[r.Intn(len(gridCollectives))], procs: missProcs,
				bytes: logUniform(r, minQueryBytes, maxQueryBytes)}
			if ownedByB(q) {
				qs[i] = q
				break
			}
		}
	}
	return qs
}
