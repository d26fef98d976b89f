package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"collsel/internal/cluster"
	"collsel/internal/feedback"
	"collsel/internal/netmodel"
	"collsel/internal/runner"
	"collsel/internal/serve"
	"collsel/internal/store"
)

// compileWorkers matches the two runner workers the compile workload
// specifies; every compile gets a fresh engine and so a cold cell cache.
const compileWorkers = 2

// compileReps is the fewest compiles a compile run makes; setup_s and
// compile_s are their medians.
const compileReps = 3

// serveSetups is how many times a serving run sets up; setup_s is their
// median. Each set-up compiles the whole grid, most of a serving run's
// time, so a serving run sets up twice where a compile run compiles three
// times.
const serveSetups = 2

func platform() (*netmodel.Platform, error) {
	pl := netmodel.ByName(machine)
	if pl == nil {
		return nil, fmt.Errorf("machine preset %s not found", machine)
	}
	return pl, nil
}

// compileConfig is the table `compilestore -machine Hydra -procs 16,32
// -seed <seed>` builds: default collectives and size ladder, factor 1.0,
// dense. CreatedUnix stays 0; it is outside the checksum either way.
func compileConfig(pl *netmodel.Platform, seed int64, eng *runner.Engine) store.CompileConfig {
	return store.CompileConfig{
		Platform:  pl,
		ProcsList: gridProcs,
		Seed:      seed,
		Factor:    1.0,
		Runner:    eng,
	}
}

// artifact is one compiled, saved and reloaded decision table.
type artifact struct {
	compiled *store.Table // as store.Compile returned it
	table    *store.Table // as loaded back from disk
	path     string
	cache    runner.CacheStats
	compile  time.Duration // store.Compile alone
	save     time.Duration
	load     time.Duration
}

// buildArtifact compiles the grid on a fresh engine, saves it to path and
// loads it back through LoadWithFallback, the way collseld starts.
func (b *bench) buildArtifact(ctx context.Context, pl *netmodel.Platform, path string, progress func(done, total int)) (*artifact, error) {
	eng := runner.New(runner.WithWorkers(compileWorkers))
	cfg := compileConfig(pl, b.seed, eng)
	cfg.Progress = progress
	a := &artifact{path: path}
	t0 := time.Now()
	tb, err := store.Compile(ctx, cfg)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	a.compiled = tb
	a.compile = t1.Sub(t0)
	a.cache = eng.Cache().Stats()
	root := b.spans.add(0, "store.Compile", t0, t1)
	if a.table, a.save, a.load, err = b.saveLoad(root, tb, path); err != nil {
		return nil, err
	}
	return a, nil
}

// saveLoad writes tb to path and reads it back as a server would.
func (b *bench) saveLoad(parent int64, tb *store.Table, path string) (*store.Table, time.Duration, time.Duration, error) {
	t0 := time.Now()
	if err := tb.Save(path); err != nil {
		return nil, 0, 0, fmt.Errorf("save: %w", err)
	}
	t1 := time.Now()
	loaded, usedBackup, err := store.LoadWithFallback(path)
	t2 := time.Now()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("load: %w", err)
	}
	if usedBackup {
		return nil, 0, 0, fmt.Errorf("load %s fell back to the backup artifact", path)
	}
	b.spans.add(parent, "store.Save", t0, t1)
	b.spans.add(parent, "store.LoadWithFallback", t1, t2)
	return loaded, t1.Sub(t0), t2.Sub(t1), nil
}

// replica is one in-process collseld: a serve.Server behind a loopback
// listener, configured to collseld's flag defaults, with the feedback
// pipeline enabled.
type replica struct {
	handle   *store.Handle
	server   *serve.Server
	pipeline *feedback.Pipeline
	cluster  *cluster.Cluster
	http     *http.Server
	url      string
	served   chan error
}

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startReplica serves tb on ln. walDir holds the observation WAL and the
// autotuned artifact. clu may be nil (no replication).
func startReplica(tb *store.Table, storePath, walDir string, ln net.Listener, clu *cluster.Cluster) (*replica, error) {
	handle := store.NewHandle(tb)
	pipe, err := feedback.New(feedback.Config{
		WALDir:      walDir,
		Buffer:      64,
		Plan:        feedback.PlanConfig{Threshold: 0.25},
		BackoffBase: 500 * time.Millisecond,
		Handle:      handle,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		Handle:            handle,
		StorePath:         storePath,
		ColdWorkers:       2,
		ColdCacheCap:      4096,
		ColdQueue:         8,
		SelectTimeout:     30 * time.Second,
		NegativeRetries:   2,
		ModelTier:         true,
		ObserveRetryAfter: time.Second,
		Breaker:           serve.BreakerConfig{Failures: 5, OpenFor: 10 * time.Second},
		Feedback:          pipe,
		Cluster:           clu,
	})
	if err != nil {
		ln.Close()
		pipe.Close()
		return nil, err
	}
	pipe.Start()
	if clu != nil {
		clu.Start()
	}
	r := &replica{
		handle: handle, server: srv, pipeline: pipe, cluster: clu,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { r.served <- r.http.Serve(ln) }()
	return r, nil
}

// waitHealthy polls /healthz until it answers 200.
func (r *replica) waitHealthy(ctx context.Context, client *http.Client) error {
	for {
		resp, err := client.Get(r.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// close shuts the replica down and waits for every goroutine it started:
// the HTTP server, background refinements, the cluster loops and the
// feedback pipeline.
func (r *replica) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	r.server.WaitBackground()
	if r.cluster != nil {
		r.cluster.Close()
	}
	return errors.Join(err, r.pipeline.Close())
}

// quiesce waits until background refinements have finished and the
// feedback pipeline has ingested every batch and finished every
// recompilation it started. The recompiler exposes no busy flag, so idle
// means: every attempt has ended (promoted, failed or lost its swap) and
// no new one started over two consecutive 50 ms windows.
func (r *replica) quiesce(ctx context.Context) error {
	for stable := 0; stable < 2; {
		r.server.WaitBackground()
		if err := r.pipeline.Quiesce(ctx); err != nil {
			return err
		}
		before := r.pipeline.Stats()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
		after := r.pipeline.Stats()
		ended := after.RecompileSuccesses + after.RecompileFailures + after.SwapsLost
		if after.RecompileAttempts == before.RecompileAttempts && after.RecompileAttempts == ended &&
			after.BackoffState == feedback.BackoffIdle {
			stable++
		} else {
			stable = 0
		}
	}
	return nil
}

// newClient returns a keep-alive HTTP client shared by the client goroutines.
func newClient(clients int) *http.Client {
	tr := &http.Transport{MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients, IdleConnTimeout: time.Minute}
	return &http.Client{Transport: tr, Timeout: time.Minute}
}

// runDir makes a fresh subdirectory of the run's scratch directory.
func (b *bench) runDir(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	return d, os.MkdirAll(d, 0o755)
}
