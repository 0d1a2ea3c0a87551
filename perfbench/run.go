package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	"talign/internal/exec"
	"talign/internal/storage"
)

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []metric
	Info      []string
	Spans     []span
}

// phase is one measured interval: every client's samples plus the
// public counters read at its start and end.
type phase struct {
	samples       []sample
	wall          time.Duration
	refWall       time.Duration // wall, steal-adjusted
	before, after counters
	gateMax       int64
}

// counters is a snapshot of the public counters the benchmark reads:
// plan-cache stats summed over the set-up's servers (blended across nodes
// in stream-dist), the process-wide segment counters, the coordinator's
// distribution counters and the Go heap counters.
type counters struct {
	hits, misses, plans uint64
	scanned, pruned     uint64
	dist                map[string]uint64
	totalAlloc          uint64
	cpu                 time.Duration
	host                hostCPU
}

func (b *bench) counters() counters {
	c := counters{scanned: exec.SegmentsScanned(), pruned: exec.SegmentsPruned(), dist: map[string]uint64{}}
	for _, n := range b.sys.nodes {
		st := n.CacheStats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.plans += st.Plans
	}
	if b.sys.coord != nil {
		for _, m := range b.sys.coord.DistMetrics() {
			c.dist[m.Name] = m.Value
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc = ms.TotalAlloc
	c.cpu, c.host = processCPU(), readHostCPU()
	return c
}

// processCPU is the user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one benchmark run and reports to out as it goes.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	b := &bench{cfg: cfg, shapes: streamShapes}
	if b.windowed() {
		b.shapes = windowShapes
	}
	if cfg.Trace {
		b.tr = newTracer()
	}
	res := &result{Info: []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%t", cfg.Workload, cfg.Seed, cfg.Duration.Seconds(), cfg.Trace),
		"machine: " + machineInfo(),
		b.describe(),
	}}
	say := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		res.Info = append(res.Info, line)
		fmt.Fprintln(out, line)
	}
	for _, line := range res.Info {
		fmt.Fprintln(out, line)
	}

	if err := b.prepareInputs(); err != nil {
		return nil, err
	}
	setupS, err := b.setUpAll(ctx)
	if err != nil {
		return nil, err
	}
	defer b.sys.close()
	refStart := time.Now()
	if err := b.reference(ctx); err != nil {
		return nil, err
	}
	say("set-up: median of %d %.3fs; reference results: %d in %.3fs", cfg.Setups, setupS, len(b.ref), time.Since(refStart).Seconds())
	if !b.windowed() {
		for si, sh := range b.shapes {
			d := b.ref[refKey{Shape: si}]
			say("reference %s: rows=%d checksum=%016x", sh.Name, d.Rows, d.Sum)
		}
	}
	strategies, err := b.strategies(ctx)
	if err != nil {
		return nil, err
	}
	for _, s := range strategies {
		say("plan %s", s)
	}
	if err := b.newClients(ctx); err != nil {
		return nil, err
	}
	if err := b.warmUp(ctx); err != nil {
		return nil, err
	}

	var phases []phase
	if !cfg.Trace {
		ph := b.measure(ctx, cfg.Duration)
		phases = append(phases, ph)
		res.Metrics = b.endToEnd(ph, setupS)
	} else {
		untraced := b.measure(ctx, cfg.Duration/2)
		for _, c := range b.clients {
			if c.probe, err = b.newProber(c); err != nil {
				return nil, err
			}
			defer c.probe.close()
			b.tr.sessions[fmt.Sprintf("c%d", c.id)] = c
		}
		b.tr.on.Store(true)
		traced := b.measure(ctx, cfg.Duration-cfg.Duration/2)
		b.tr.on.Store(false)
		phases = append(phases, untraced, traced)
		res.Spans = b.tr.snapshot()
		res.Metrics = b.perLayer(untraced, traced, res.Spans)
	}

	wrong := 0
	for _, ph := range phases {
		for _, s := range ph.samples {
			res.Attempted++
			if s.Err != nil || s.Wrong {
				res.Failed++
			}
			if s.Err != nil {
				say("error %s: %v", className(b.shapes, s.Op), s.Err)
			}
			if s.Wrong {
				wrong++
				say("mismatch %s: the result (%d rows) differs from the reference", className(b.shapes, s.Op), s.Rows)
			}
		}
	}
	res.Correct = wrong == 0
	ph := phases[0]
	say("measured %.1fs: %d operations; host steal %.1f%% of non-idle CPU time; times are steal-adjusted",
		ph.wall.Seconds(), len(ph.samples), 100*stolenShare(ph.before.host, ph.after.host))
	for _, line := range b.classTable(phases[0]) {
		say("%s", line)
	}
	for _, m := range res.Metrics {
		say("metric %-38s %14.6g %s", m.Name, m.Value, m.Unit)
	}
	return res, nil
}

// describe states the data sizes and the flush policy.
func (b *bench) describe() string {
	switch b.cfg.Workload {
	case "window-mix":
		return fmt.Sprintf("data: Incumben a,b n=%d each (seeds s, s+1) on disk in %d-row segments, fsync on every commit; "+
			"%d clients; windows of %d days; ingest %d rows every %d operations",
			b.cfg.Rows, storage.DefaultSegmentRows, b.cfg.Clients, windowDays, b.cfg.IngestRows, b.cfg.IngestEvery)
	case "stream-dist":
		return fmt.Sprintf("data: Incumben a,b n=%d each (seeds s, s+1) in memory, hash-partitioned by ssn over %d workers "+
			"(workers share one host); 1 client; ingest %d rows per cycle; plan-cache and segment counters blend all nodes", b.cfg.Rows, workers, b.cfg.IngestRows)
	}
	return fmt.Sprintf("data: Incumben a,b n=%d each (seeds s, s+1) in memory; 1 client; ingest %d rows per cycle",
		b.cfg.Rows, b.cfg.IngestRows)
}

// warmUp runs every shape once per client, untimed, so first-use costs
// (connections, plan caches, lazy columnar images) stay out of the
// measurement.
func (b *bench) warmUp(ctx context.Context) error {
	for _, c := range b.clients {
		for si := range b.shapes {
			modes := []bool{false}
			if b.windowed() {
				modes = append(modes, true)
			}
			for _, prepared := range modes {
				s := b.read(ctx, c, op{Shape: si, Prepared: prepared})
				if s.Err != nil {
					return fmt.Errorf("warm-up %s: %w", b.shapes[si].Name, s.Err)
				}
				if s.Wrong {
					return fmt.Errorf("warm-up %s: %w", b.shapes[si].Name, errMismatch)
				}
			}
		}
	}
	return nil
}

// measure runs every client's closed loop for d, and on until the client
// has run every class and an ingest, and returns the phase.
func (b *bench) measure(ctx context.Context, d time.Duration) phase {
	minOps := 2 * (len(b.shapes) + 1) // two stream cycles: both modes, two ingests
	if b.windowed() {
		minOps = b.cfg.IngestEvery/len(b.clients) + 1
	}
	for _, c := range b.clients {
		c.cycle = 0
	}
	b.gateMax.Store(0)
	ph := phase{before: b.counters()}
	clock := startStealClock()
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || len(per[i]) < minOps {
				per[i] = append(per[i], b.do(ctx, c))
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	clock.finish()
	ph.wall = end.Sub(start)
	ph.refWall = time.Duration(float64(ph.wall) * (1 - clock.share(start, end)))
	ph.after = b.counters()
	ph.gateMax = b.gateMax.Load()
	for _, s := range per {
		for i := range s {
			s[i].Scale = 1 - clock.share(s[i].At, s[i].At.Add(s[i].Lat))
		}
		ph.samples = append(ph.samples, s...)
	}
	return ph
}

// do runs the client's next operation; in the traced half it records
// the operation's spans and probes its layers afterwards.
func (b *bench) do(ctx context.Context, c *client) sample {
	o := b.next(c)
	b.sampleGate()
	defer b.sampleGate()
	if c.probe == nil {
		if o.Ingest {
			return b.ingest(ctx, c)
		}
		return b.read(ctx, c, o)
	}
	t := b.tr
	qid, qspan := t.id(), t.id()
	class := className(b.shapes, o)
	c.curQID.Store(qid)
	c.cur.Store(qspan)
	start := time.Now()
	var s sample
	if o.Ingest {
		s = b.ingest(ctx, c)
	} else {
		s = b.read(ctx, c, o)
	}
	t.record(span{ID: qspan, Parent: qid, QID: qid, Name: "client.query", Class: class, Rows: int64(s.Rows)}, start)
	c.cur.Store(0)
	c.curQID.Store(0)
	var err error
	if o.Ingest {
		err = c.probe.storage(qid)
	} else {
		err = c.probe.read(ctx, o, qid)
	}
	if err != nil && s.Err == nil {
		s.Err = fmt.Errorf("probe: %w", err)
	}
	t.record(span{ID: qid, QID: qid, Name: "op", Class: class}, start)
	return s
}

// sampleGate records the longest admission-gate queue seen on any node.
func (b *bench) sampleGate() {
	for _, n := range b.sys.nodes {
		w := int64(n.GateStats().Waiting)
		for {
			cur := b.gateMax.Load()
			if w <= cur || b.gateMax.CompareAndSwap(cur, w) {
				break
			}
		}
	}
}

// className names an operation's class: shape and mode, or "ingest".
func className(shapes []shape, o op) string {
	if o.Ingest {
		return "ingest"
	}
	if o.Prepared {
		return shapes[o.Shape].Name + "/prepared"
	}
	return shapes[o.Shape].Name + "/adhoc"
}
