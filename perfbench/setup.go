package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"talign"
	"talign/internal/csvio"
	"talign/internal/dataset"
	"talign/internal/distsql"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
	"talign/internal/storage"
)

// bench is one run: the system under test, its clients, the reference
// results and, in traced runs, the tracer.
type bench struct {
	cfg         config
	shapes      []shape
	windows     []window
	ref         map[refKey]digest
	ingestCSV   string
	ingestBytes int64
	sys         *system
	clients     []*client
	tr          *tracer
	opSeq       atomic.Int64 // window-mix operation counter (ingest cadence)
	tables      atomic.Int64 // ingest table names
	gateMax     atomic.Int64 // highest admission-gate queue length sampled
}

func (b *bench) windowed() bool { return b.cfg.Workload == "window-mix" }

// system is one set-up of the system under test: in-process talignd
// servers on loopback HTTP and the client DB connected to the one the
// workload talks to.
type system struct {
	front *server.Server   // the server clients talk to
	nodes []*server.Server // every server of the set-up, front first
	coord *distsql.Coordinator
	flags plan.Flags
	store *storage.Store
	https []*httpNode
	db    *talign.DB
	setup time.Duration
	stage time.Duration // DistributeTable time (stream-dist)
}

// serverFlags mirrors talignd's defaults: DOP = all CPUs.
func serverFlags() plan.Flags {
	f := plan.DefaultFlags()
	f.DOP = runtime.NumCPU()
	return f
}

// newServer mirrors talignd's defaults: in-flight DOP capped at 4×CPUs.
func newServer(flags plan.Flags) *server.Server {
	return server.New(server.Config{Flags: flags, MaxDOP: 4 * runtime.NumCPU()})
}

// httpNode is one loopback HTTP listener serving a handler.
type httpNode struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// close stops the listener and waits for its serve loop to return.
func (n *httpNode) close() {
	n.srv.Close()
	<-n.done
}

func (s *system) close() {
	if s.db != nil {
		s.db.Close()
	}
	for i := len(s.https) - 1; i >= 0; i-- {
		s.https[i].close()
	}
	if s.store != nil {
		s.store.Close()
	}
}

// relations generates the two Incumben relations of a run.
func (b *bench) relations() (*relation.Relation, *relation.Relation) {
	return dataset.Incumben(dataset.IncumbenConfig{Rows: b.cfg.Rows, Seed: b.cfg.Seed}),
		dataset.Incumben(dataset.IncumbenConfig{Rows: b.cfg.Rows, Seed: b.cfg.Seed + 1})
}

// setUp builds one system from scratch in dir and returns it once it can
// answer the first query. Everything it does counts toward setup_s.
func (b *bench) setUp(ctx context.Context, dir string) (*system, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &system{flags: serverFlags()}
	relA, relB := b.relations()
	handler := func(srv *server.Server) http.Handler { return srv.Handler() }
	if b.tr != nil {
		handler = b.tr.frontHandler
	}
	var err error
	switch b.cfg.Workload {
	case "window-mix":
		err = b.setUpDisk(ctx, s, dir, relA, relB, handler)
	case "stream-single":
		s.front = newServer(s.flags)
		s.nodes = []*server.Server{s.front}
		s.front.Catalog().Register("a", relA)
		s.front.Catalog().Register("b", relB)
		err = b.connect(s, handler(s.front))
	case "stream-dist":
		err = b.setUpCluster(ctx, s, relA, relB, handler)
	}
	if err == nil {
		err = b.analyze(ctx, s)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// connect serves h on loopback and opens the client DB against it.
func (b *bench) connect(s *system, h http.Handler) error {
	n, err := listen(h)
	if err != nil {
		return err
	}
	s.https = append(s.https, n)
	s.db, err = talign.Open("talignd://" + strings.TrimPrefix(n.url, "http://"))
	return err
}

// setUpDisk starts a disk-backed talignd and loads a and b through the
// client with CREATE TABLE … FROM CSV.
func (b *bench) setUpDisk(ctx context.Context, s *system, dir string, relA, relB *relation.Relation, handler func(*server.Server) http.Handler) error {
	var err error
	if s.store, err = storage.Open(filepath.Join(dir, "store")); err != nil {
		return err
	}
	s.front = newServer(s.flags)
	s.nodes = []*server.Server{s.front}
	if _, err := s.front.UseStore(s.store); err != nil {
		return err
	}
	if err := b.connect(s, handler(s.front)); err != nil {
		return err
	}
	for name, rel := range map[string]*relation.Relation{"a": relA, "b": relB} {
		path := filepath.Join(dir, name+".csv")
		if err := csvio.WriteFile(path, rel); err != nil {
			return err
		}
		if err := b.exec(ctx, s, fmt.Sprintf("CREATE TABLE %s FROM CSV '%s'", name, path)); err != nil {
			return err
		}
	}
	return nil
}

// setUpCluster starts the workers and the coordinator and hash-partitions
// a and b by ssn across the workers with DistributeTable.
func (b *bench) setUpCluster(ctx context.Context, s *system, relA, relB *relation.Relation, handler func(*server.Server) http.Handler) error {
	var topo distsql.Topology
	s.front = newServer(s.flags)
	s.nodes = []*server.Server{s.front}
	for i := 0; i < workers; i++ {
		w := newServer(s.flags)
		var h http.Handler = distsql.Handler(w)
		name := fmt.Sprintf("w%d", i)
		if b.tr != nil {
			h = b.tr.workerHandler(name, h)
		}
		n, err := listen(h)
		if err != nil {
			return err
		}
		s.https = append(s.https, n)
		s.nodes = append(s.nodes, w)
		topo.Workers = append(topo.Workers, distsql.Worker{Name: name, URL: n.url})
	}
	s.coord = distsql.New(s.front, topo, s.flags, nil)
	s.coord.Attach()
	if err := b.connect(s, handler(s.front)); err != nil {
		return err
	}
	stage := time.Now()
	for _, t := range []struct {
		name string
		rel  *relation.Relation
	}{{"a", relA}, {"b", relB}} {
		if err := s.coord.DistributeTable(ctx, t.name, t.rel); err != nil {
			return err
		}
	}
	s.stage = time.Since(stage)
	return nil
}

// analyze runs ANALYZE on both tables through the client.
func (b *bench) analyze(ctx context.Context, s *system) error {
	for _, name := range []string{"a", "b"} {
		if err := b.exec(ctx, s, "ANALYZE "+name); err != nil {
			return err
		}
	}
	return nil
}

// exec runs a statement that returns no rows through the system's DB.
func (b *bench) exec(ctx context.Context, s *system, sql string) error {
	rows, err := s.db.Query(ctx, sql)
	if err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	return rows.Close()
}

// setUpAll builds the system cfg.Setups times, keeps the last one and
// returns the median steal-adjusted set-up time in seconds: setup_s.
func (b *bench) setUpAll(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < b.cfg.Setups; i++ {
		dir := filepath.Join(b.cfg.Dir, fmt.Sprintf("setup%d", i))
		host := readHostCPU()
		s, err := b.setUp(ctx, dir)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		b.sys = s
		times = append(times, s.setup.Seconds()*(1-stolenShare(host, readHostCPU())))
		if i < b.cfg.Setups-1 {
			s.close()
			b.sys = nil
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
	}
	sort.Float64s(times)
	return median(times), nil
}

// prepareInputs writes the ingest CSV file and draws the windows.
func (b *bench) prepareInputs() error {
	b.ingestCSV = filepath.Join(b.cfg.Dir, "ingest.csv")
	ing := dataset.Incumben(dataset.IncumbenConfig{Rows: b.cfg.IngestRows, Seed: b.cfg.Seed + 2})
	if err := csvio.WriteFile(b.ingestCSV, ing); err != nil {
		return err
	}
	info, err := os.Stat(b.ingestCSV)
	if err != nil {
		return err
	}
	b.ingestBytes = info.Size()
	if !b.windowed() {
		return nil
	}
	// Windows start anywhere in the valid-time span of the tuples. A
	// window's slack is how far it can move right before a tuple start
	// enters or leaves it.
	relA, relB := b.relations()
	var starts []int64
	for _, rel := range []*relation.Relation{relA, relB} {
		for _, t := range rel.Tuples {
			starts = append(starts, t.T.Ts)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	maxTS := starts[len(starts)-1]
	next := func(x int64) int64 {
		if i := sort.Search(len(starts), func(i int) bool { return starts[i] >= x }); i < len(starts) {
			return starts[i]
		}
		return x + windowDays
	}
	rng := rand.New(rand.NewSource(b.cfg.Seed))
	for i := 0; i < b.cfg.Windows; i++ {
		lo := rng.Int63n(maxTS + 1)
		hi := lo + windowDays
		b.windows = append(b.windows, window{Lo: lo, Hi: hi, Slack: min(next(lo)-lo, next(hi)-hi)})
	}
	return nil
}

// reference computes every result the workload can produce through the
// embedded talign:// engine over the same relations.
func (b *bench) reference(ctx context.Context) error {
	db, err := talign.Open("talign://")
	if err != nil {
		return err
	}
	defer db.Close()
	relA, relB := b.relations()
	if err := db.Register("a", relA); err != nil {
		return err
	}
	if err := db.Register("b", relB); err != nil {
		return err
	}
	b.ref = map[refKey]digest{}
	add := func(key refKey, sql string) error {
		rows, err := db.Query(ctx, sql)
		if err != nil {
			return fmt.Errorf("reference %s: %w", sql, err)
		}
		var d digest
		var buf []byte
		for rows.Next() {
			buf, d.Sum = addRow(buf, d.Sum, rows.Values())
			d.Rows++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		if b.cfg.skewRef {
			d.Sum++
		}
		b.ref[key] = d
		return nil
	}
	for si, sh := range b.shapes {
		if !b.windowed() {
			if err := add(refKey{Shape: si}, sh.SQL); err != nil {
				return err
			}
			continue
		}
		for wi, w := range b.windows {
			if err := add(refKey{Shape: si, Window: wi}, sh.adhoc(w)); err != nil {
				return err
			}
		}
	}
	return nil
}

// newClients opens the clients' sessions and prepares their statements.
func (b *bench) newClients(ctx context.Context) error {
	b.clients = nil
	for i := 0; i < b.cfg.Clients; i++ {
		c := &client{id: i, sess: b.sys.db.Session(fmt.Sprintf("c%d", i)), rng: rand.New(rand.NewSource(b.cfg.Seed*100 + int64(i)))}
		for _, sh := range b.shapes {
			st, err := c.sess.Prepare(ctx, sh.prepared())
			if err != nil {
				return fmt.Errorf("prepare %s: %w", sh.Name, err)
			}
			c.stmts = append(c.stmts, st)
		}
		b.clients = append(b.clients, c)
	}
	return nil
}

// strategies returns the first EXPLAIN line of each shape on the front
// server: the distributed strategy on a coordinator.
func (b *bench) strategies(ctx context.Context) ([]string, error) {
	var out []string
	for _, sh := range b.shapes {
		sql := sh.SQL
		if b.windowed() {
			sql = sh.adhoc(b.windows[0])
		}
		rows, err := b.sys.db.Query(ctx, "EXPLAIN "+sql)
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", sh.Name, err)
		}
		first, _, _ := strings.Cut(rows.Plan(), "\n")
		rows.Close()
		out = append(out, fmt.Sprintf("%s: %s", sh.Name, strings.TrimSpace(first)))
	}
	return out, nil
}

// machineInfo describes the host for every result.
func machineInfo() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

var errMismatch = errors.New("result does not match the reference")
