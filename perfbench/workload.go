package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"talign"
	"talign/internal/value"
)

// config is one run's parameters. newConfig fills the published sizes;
// the smoke test shrinks them.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration // measured time (split in two halves when Trace)
	Trace    bool
	Dir      string // scratch directory for CSV files and the data store

	Rows        int // tuples per relation a and b
	IngestRows  int // tuples in the CSV file each ingest loads
	IngestEvery int // window-mix: every IngestEvery-th operation ingests
	Windows     int // window-mix: distinct valid-time windows drawn from
	Setups      int // set-ups per run; setup_s is their median
	Clients     int // closed-loop clients

	// skewRef perturbs every reference checksum. Tests use it to prove
	// that a wrong result fails the run.
	skewRef bool
}

func newConfig(workload string, seed int64, d time.Duration, trace bool) (config, error) {
	cfg := config{
		Workload:    workload,
		Seed:        seed,
		Duration:    d,
		Trace:       trace,
		Rows:        100_000,
		IngestRows:  20_000,
		IngestEvery: 100,
		Windows:     64,
		Setups:      5,
		Clients:     1,
	}
	switch workload {
	case "window-mix":
		cfg.Clients = min(2, runtime.NumCPU()) // never more clients than CPUs
	case "stream-single", "stream-dist":
		cfg.Rows = 50_000
	default:
		return cfg, fmt.Errorf("unknown -workload %q (want window-mix, stream-single or stream-dist)", workload)
	}
	return cfg, nil
}

// shape is one query shape. Window shapes hold {lo} and {hi} where the
// valid-time window bounds go: "$1"/"$2" when prepared, literals when ad
// hoc.
type shape struct {
	Name      string
	SQL       string
	Streaming bool // counts toward first_row_p50_ms
}

const (
	windowDays = 30 // window-mix: valid-time window length
	// workers is the stream-dist cluster width: the most a 2-CPU host runs
	// without mostly measuring the scheduler.
	workers = 2
)

// windowPred restricts a relation to tuples starting inside the window.
const windowPred = "Ts >= {lo} AND Ts < {hi}"

var windowShapes = []shape{
	{Name: "scan", Streaming: true,
		SQL: "SELECT ssn, pcn, Ts, Te FROM a WHERE " + windowPred},
	{Name: "align", Streaming: true,
		SQL: "SELECT ssn, pcn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE " + windowPred + ") x ALIGN " +
			"(SELECT ssn, pcn FROM b WHERE " + windowPred + ") y ON x.ssn = y.ssn) z"},
	{Name: "normalize", Streaming: true,
		SQL: "SELECT ssn, COUNT(*) c, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE " + windowPred + ") x NORMALIZE " +
			"(SELECT ssn, pcn FROM b WHERE " + windowPred + ") y USING (ssn)) z GROUP BY ssn, Ts, Te"},
}

var streamShapes = []shape{
	{Name: "align-ssn", Streaming: true,
		SQL: "SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x"},
	{Name: "normalize-ssn", Streaming: true,
		SQL: "SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x"},
	{Name: "normalize-pcn-agg",
		SQL: "SELECT pcn, COUNT(*) c, Ts, Te FROM (a NORMALIZE b USING (pcn)) x GROUP BY pcn, Ts, Te"},
	{Name: "count-normalize",
		SQL: "SELECT COUNT(*) c FROM (a NORMALIZE b USING (ssn)) x"},
}

// window is a valid-time window [Lo, Hi). Shifting it right by up to
// Slack days keeps the same tuples inside, so operations draw a shift to
// vary the literal SQL text without changing the reference result.
type window struct{ Lo, Hi, Slack int64 }

// shifted returns w moved right by d days.
func (w window) shifted(d int64) window { return window{Lo: w.Lo + d, Hi: w.Hi + d} }

// adhoc renders s with literal window bounds.
func (s shape) adhoc(w window) string {
	return strings.NewReplacer("{lo}", strconv.FormatInt(w.Lo, 10), "{hi}", strconv.FormatInt(w.Hi, 10)).Replace(s.SQL)
}

// prepared renders s with $1/$2 window bounds.
func (s shape) prepared() string {
	return strings.NewReplacer("{lo}", "$1", "{hi}", "$2").Replace(s.SQL)
}

// op is one client operation: a read of one shape (prepared or ad hoc,
// over one window for window shapes) or an ingest.
type op struct {
	Ingest   bool
	Shape    int
	Prepared bool
	Window   int   // index into bench.windows (window-mix only)
	Shift    int64 // days the window is shifted, within its slack
}

// class numbers the (shape, mode) read classes.
func (o op) class() int {
	c := 2 * o.Shape
	if o.Prepared {
		c++
	}
	return c
}

// client is one closed-loop client: its own session, prepared
// statements and random stream.
type client struct {
	id    int
	sess  *talign.Session
	stmts []*talign.Stmt
	rng   *rand.Rand
	cycle int // stream workloads: position in the fixed shape cycle
	// cur and curQID name the span of the client's query in flight and
	// its operation (traced runs).
	cur, curQID atomic.Uint64
	// probe holds what traced runs need per client (nil when untraced).
	probe *prober
}

// next picks the client's next operation.
func (b *bench) next(c *client) op {
	if !b.windowed() {
		// Fixed cycle: the four shapes, then one ingest; cycles alternate
		// between ad hoc text and prepared statements.
		n := len(b.shapes) + 1
		pos, round := c.cycle%n, c.cycle/n
		c.cycle++
		if pos == len(b.shapes) {
			return op{Ingest: true}
		}
		return op{Shape: pos, Prepared: round%2 == 1}
	}
	if b.opSeq.Add(1)%int64(b.cfg.IngestEvery) == 0 {
		return op{Ingest: true}
	}
	o := op{
		Shape:    c.rng.Intn(len(b.shapes)),
		Prepared: c.rng.Float64() < 0.6,
		Window:   c.rng.Intn(len(b.windows)),
	}
	o.Shift = c.rng.Int63n(b.windows[o.Window].Slack + 1)
	return o
}

// sample is one finished operation.
type sample struct {
	Op    op
	At    time.Time     // when the operation started
	Lat   time.Duration // Query to last row decoded and Close
	First time.Duration // Query to first row (reads with rows)
	Rows  int
	Err   error
	Wrong bool // completed, but the result did not match the reference
	// Scale steal-adjusts the sample's times (steal.go): one less the
	// stolen share of CPU time around the operation.
	Scale float64
}

// refKey names a reference result.
type refKey struct{ Shape, Window int }

// digest is a result's row count and order-insensitive checksum.
type digest struct {
	Rows int
	Sum  uint64
}

// read runs one read operation through the client and checks it.
func (b *bench) read(ctx context.Context, c *client, o op) sample {
	s := sample{Op: o}
	sh := b.shapes[o.Shape]
	var args []any
	var w window
	if b.windowed() {
		w = b.windows[o.Window].shifted(o.Shift)
		args = []any{w.Lo, w.Hi}
	}
	start := time.Now()
	s.At = start
	var rows *talign.Rows
	var err error
	if o.Prepared {
		rows, err = c.stmts[o.Shape].Query(ctx, args...)
	} else if b.windowed() {
		rows, err = c.sess.Query(ctx, sh.adhoc(w))
	} else {
		rows, err = c.sess.Query(ctx, sh.SQL)
	}
	if err != nil {
		s.Err = err
		s.Lat = time.Since(start)
		return s
	}
	var d digest
	var buf []byte
	for rows.Next() {
		if d.Rows == 0 {
			s.First = time.Since(start)
		}
		buf, d.Sum = addRow(buf, d.Sum, rows.Values())
		d.Rows++
	}
	s.Err = rows.Err()
	rows.Close()
	s.Lat = time.Since(start)
	s.Rows = d.Rows
	if s.Err == nil {
		key := refKey{Shape: o.Shape}
		if b.windowed() {
			key.Window = o.Window
		}
		s.Wrong = d != b.ref[key]
	}
	return s
}

// ingest loads the ingest CSV file into a fresh table and drops it.
func (b *bench) ingest(ctx context.Context, c *client) sample {
	s := sample{Op: op{Ingest: true}}
	name := fmt.Sprintf("t%d", b.tables.Add(1))
	start := time.Now()
	s.At = start
	create, err := b.statement(ctx, c, fmt.Sprintf("CREATE TABLE %s FROM CSV '%s'", name, b.ingestCSV))
	if err == nil {
		var drop string
		drop, err = b.statement(ctx, c, "DROP TABLE "+name)
		s.Wrong = create != fmt.Sprintf("CREATE TABLE %s: %d rows, 2 columns", name, b.cfg.IngestRows) ||
			drop != "DROP TABLE "+name
	}
	s.Lat = time.Since(start)
	s.Err = err
	return s
}

// statement runs a statement that answers with a plan text.
func (b *bench) statement(ctx context.Context, c *client, sql string) (string, error) {
	rows, err := c.sess.Query(ctx, sql)
	if err != nil {
		return "", err
	}
	defer rows.Close()
	return rows.Plan(), rows.Err()
}

// addRow folds one row into an order-insensitive checksum: the sum of a
// mixed FNV-1a hash of each row's value key encodings.
func addRow(buf []byte, sum uint64, vals []value.Value) ([]byte, uint64) {
	buf = buf[:0]
	for _, v := range vals {
		buf = v.AppendKey(buf)
		buf = append(buf, 0xfe)
	}
	h := uint64(14695981039346656037)
	for _, c := range buf {
		h ^= uint64(c)
		h *= 1099511628211
	}
	// splitmix64 finalizer: spreads FNV's low-entropy high bits so sums
	// of many row hashes stay collision-resistant.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return buf, sum + h
}
