// Command experiments regenerates every figure of the paper's evaluation
// (Sec. 7, Figs. 13–16) on the synthetic datasets and prints the series as
// TSV. Sizes default to a laptop-friendly scale; quadratic baselines are
// capped separately (see -nlmax/-sqlmax) exactly because their blow-up is
// the phenomenon the figures demonstrate.
//
// Usage:
//
//	experiments -fig all|13a|13b|14a|14b|15a|15b|15c|15d|16a|16b [-scale 100]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"talign/internal/baseline"
	"talign/internal/benchkit"
	"talign/internal/core"
	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/sqlish"
	"talign/internal/storage"
)

var (
	figFlag   = flag.String("fig", "all", "figure to regenerate (13a..16b or all)")
	scaleFlag = flag.Int("scale", 100, "percentage applied to the default sweep sizes")
	nlMax     = flag.Int("nlmax", 4000, "largest input for nested-loop series (quadratic)")
	sqlMax    = flag.Int("sqlmax", 2000, "largest input for standard-SQL series (quadratic)")
	seed      = flag.Int64("seed", 1, "dataset seed")
	dopFlag   = flag.Int("j", 1, "degree of parallelism: when > 1, parallel exchange series are added (0 = all CPUs)")
	benchFlag = flag.String("bench", "", "write ns/op, allocs/op and rows for the Fig. 13/14 panels to this JSON file (e.g. BENCH_PR2.json) instead of printing figures; an existing 'before' section in the file is preserved")
	optFlag   = flag.String("bench-opt", "", "write filtered Fig. 13-style SQL workloads to this JSON file (e.g. BENCH_PR4.json), measuring DisableOptimizer as 'before' and the stats-fed optimizer as 'after'")
	colFlag   = flag.String("bench-col", "", "write filtered Fig. 13-style SQL workloads to this JSON file, measuring the row executor (DisableColumnar; the fused ALIGN/NORMALIZE operator stays columnar) as 'before' and the vectorized pipeline as 'after'; both sides run the stats-fed optimizer")
	storFlag  = flag.String("bench-storage", "", "write disk-backed workloads to this JSON file (e.g. BENCH_PR8.json): the PR 6 filtered panels plus valid-time-filtered scans/ALIGN over on-disk segments, measuring plan.Flags.DisablePruning as 'before' and zone-map segment pruning as 'after'")
	distFlag  = flag.String("bench-dist", "", "write distributed Fig. 13 ALIGN/NORMALIZE workloads (n scaled by -scale from 10^6) to this JSON file (e.g. BENCH_PR10.json): scatter-gather over 1, 2 and 4 in-process workers, with fragment/row/byte-shipped counters per panel")
)

// dop resolves the -j flag (0 means every CPU; negatives are rejected).
func dop() int {
	if *dopFlag < 0 {
		fmt.Fprintf(os.Stderr, "-j must be >= 0 (0 = all CPUs), got %d\n", *dopFlag)
		os.Exit(1)
	}
	if *dopFlag == 0 {
		return runtime.NumCPU()
	}
	return *dopFlag
}

// parFlags is DefaultFlags with the exchange layer enabled at -j workers.
func parFlags() plan.Flags {
	f := plan.DefaultFlags()
	f.DOP = dop()
	return f
}

func main() {
	flag.Parse()
	if *benchFlag != "" {
		if err := runBenchPanels(*benchFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *optFlag != "" {
		if err := runOptBenchPanels(*optFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench-opt: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *colFlag != "" {
		if err := runColBenchPanels(*colFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench-col: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storFlag != "" {
		if err := runStorageBenchPanels(*storFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench-storage: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *distFlag != "" {
		if err := runDistBenchPanels(*distFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bench-dist: %v\n", err)
			os.Exit(1)
		}
		return
	}
	figs := map[string]func() (benchkit.Figure, error){
		"13a": fig13a, "13b": fig13b,
		"14a": fig14a, "14b": fig14b,
		"15a": fig15a, "15b": fig15b, "15c": fig15c, "15d": fig15d,
		"16a": fig16a, "16b": fig16b,
	}
	order := []string{"13a", "13b", "14a", "14b", "15a", "15b", "15c", "15d", "16a", "16b"}
	run := func(id string) {
		f, err := figs[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := f.WriteTSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *figFlag == "all" {
		for _, id := range order {
			run(id)
		}
		return
	}
	if _, ok := figs[*figFlag]; !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 13a..16b or all)\n", *figFlag)
		os.Exit(1)
	}
	run(*figFlag)
}

func sizes(base []int) []int { return benchkit.Scale(base, *scaleFlag) }

// incCache caches generated Incumben datasets per size; the mutex keeps it
// safe if sweeps ever run concurrently.
var (
	incMu    sync.Mutex
	incCache = map[int]*relation.Relation{}
)

func incumben(n int) *relation.Relation {
	incMu.Lock()
	defer incMu.Unlock()
	if rel, ok := incCache[n]; ok {
		return rel
	}
	rel := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: *seed})
	incCache[n] = rel
	return rel
}

// normalizeSSN runs N_{ssn}(inc; inc) under the given flags.
func normalizeRun(attrs []string, flags plan.Flags) benchkit.Runner {
	return func(n int) (int, error) {
		a := core.New(flags)
		inc := incumben(n)
		out, err := a.Normalize(inc, inc, attrs...)
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig13a: runtime of N{ssn} with the join method forced, as in Sec. 7.2.
func fig13a() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "13a", Title: "Normalization N{ssn} on Incumben, forced join methods", XLabel: "input tuples"}
	variants := []struct {
		name  string
		flags plan.Flags
		cap   int
	}{
		{"merge", plan.Flags{EnableMergeJoin: true, EnableSort: true}, 1 << 30},
		{"hash", plan.Flags{EnableHashJoin: true}, 1 << 30},
		{"nestloop", plan.Flags{EnableNestLoop: true}, *nlMax},
	}
	if dop() > 1 {
		par := plan.Flags{EnableHashJoin: true, DOP: dop()}
		variants = append(variants, struct {
			name  string
			flags plan.Flags
			cap   int
		}{fmt.Sprintf("hash-par(j=%d)", dop()), par, 1 << 30})
	}
	for _, v := range variants {
		s, err := benchkit.Sweep(v.name, benchkit.CapSizes(sz, v.cap), normalizeRun([]string{"ssn"}, v.flags))
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig13b: output cardinality of N{ssn} (method independent).
func fig13b() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "13b", Title: "Normalization N{ssn} output size", XLabel: "input tuples"}
	s, err := benchkit.Sweep("output", sz, normalizeRun([]string{"ssn"}, plan.DefaultFlags()))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig14a/b: N{}, N{pcn}, N{ssn} runtime and output size. N{} splits every
// tuple at every boundary and is therefore capped like the quadratic
// baselines.
func fig14(fig benchkit.Figure) (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	variants := []struct {
		name  string
		attrs []string
		cap   int
	}{
		{"N{}", nil, *nlMax},
		{"N{pcn}", []string{"pcn"}, 1 << 30},
		{"N{ssn}", []string{"ssn"}, 1 << 30},
	}
	for _, v := range variants {
		s, err := benchkit.Sweep(v.name, benchkit.CapSizes(sz, v.cap), normalizeRun(v.attrs, plan.DefaultFlags()))
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

func fig14a() (benchkit.Figure, error) {
	return fig14(benchkit.Figure{ID: "14a", Title: "Normalization attributes: runtime", XLabel: "input tuples"})
}

func fig14b() (benchkit.Figure, error) {
	return fig14(benchkit.Figure{ID: "14b", Title: "Normalization attributes: output size", XLabel: "input tuples"})
}

// outerRunner runs a temporal left outer join workload under a strategy.
func o1Runner(st baseline.Strategy, gen func(n int, seed int64) (*relation.Relation, *relation.Relation)) benchkit.Runner {
	return func(n int) (int, error) {
		r, s := gen(n, *seed)
		out, err := baseline.LeftOuterJoin(st, r, s, nil)
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig15a: O1 on D_disj — align stays cheap, sql goes quadratic.
func fig15a() (benchkit.Figure, error) {
	sz := sizes([]int{1000, 2000, 4000, 8000, 16000})
	fig := benchkit.Figure{ID: "15a", Title: "O1 = r LOJ(true) s on D_disj", XLabel: "input tuples per relation"}
	sAlign, err := benchkit.Sweep("align", sz, o1Runner(baseline.StrategyAlign, dataset.Ddisj))
	if err != nil {
		return fig, err
	}
	sSQL, err := benchkit.Sweep("sql", benchkit.CapSizes(sz, *sqlMax), o1Runner(baseline.StrategySQL, dataset.Ddisj))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	return fig, nil
}

// fig15b: O1 on D_eq — sql wins (NOT EXISTS refutes instantly); align's
// group join is quadratic in the overlap count, so both are capped small.
func fig15b() (benchkit.Figure, error) {
	sz := benchkit.CapSizes(sizes([]int{125, 250, 500, 1000}), *sqlMax)
	fig := benchkit.Figure{ID: "15b", Title: "O1 = r LOJ(true) s on D_eq", XLabel: "input tuples per relation"}
	for _, st := range []baseline.Strategy{baseline.StrategyAlign, baseline.StrategySQL} {
		s, err := benchkit.Sweep(st.String(), sz, o1Runner(st, dataset.Deq))
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig15c: O2 on D_rand — the ESR condition Min ≤ DUR(r.T) ≤ Max.
func fig15c() (benchkit.Figure, error) {
	sz := sizes([]int{500, 1000, 2000, 4000})
	fig := benchkit.Figure{ID: "15c", Title: "O2 = r LOJ(Min<=DUR(r.T)<=Max) s on D_rand", XLabel: "input tuples per relation"}
	run := func(st baseline.Strategy) benchkit.Runner {
		return func(n int) (int, error) {
			r0, s := dataset.Drand(n, *seed)
			r := core.MustExtend(r0, "u")
			out, err := baseline.LeftOuterJoin(st, r, s, baseline.O2Theta())
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}
	}
	sAlign, err := benchkit.Sweep("align", sz, run(baseline.StrategyAlign))
	if err != nil {
		return fig, err
	}
	sSQL, err := benchkit.Sweep("sql", benchkit.CapSizes(sz, *sqlMax), run(baseline.StrategySQL))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	return fig, nil
}

// o3Run evaluates O3 = r FOJ(pcn=pcn2) s over dataset halves.
func o3Run(st baseline.Strategy, gen func(n int) *relation.Relation) benchkit.Runner {
	return func(n int) (int, error) {
		r, s := dataset.SplitHalves(gen(n), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
		out, err := baseline.FullOuterJoin(st, r, s, baseline.O3Theta())
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
}

// fig15d: O3 on Incumben — the equality condition lets both approaches use
// fast joins.
func fig15d() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "15d", Title: "O3 = r FOJ(pcn=pcn) s on Incumben", XLabel: "input tuples total"}
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, incumben))
	if err != nil {
		return fig, err
	}
	// O3's equality condition keeps the SQL baseline's joins hash-friendly
	// (Sec. 7.4), so no quadratic cap is needed here.
	sSQL, err := benchkit.Sweep("sql", sz, o3Run(baseline.StrategySQL, incumben))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sSQL)
	if dop() > 1 {
		run := func(n int) (int, error) {
			r, s := dataset.SplitHalves(incumben(n), []string{"ssn", "pcn"}, []string{"ssn2", "pcn2"})
			out, err := core.New(parFlags()).FullOuterJoin(r, s, baseline.O3Theta())
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}
		sPar, err := benchkit.Sweep(fmt.Sprintf("align-par(j=%d)", dop()), sz, run)
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, sPar)
	}
	return fig, nil
}

// fig16a: O3 align vs sql+normalize on Incumben.
func fig16a() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "16a", Title: "O3 on Incumben: align vs sql+normalize", XLabel: "input tuples total"}
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, incumben))
	if err != nil {
		return fig, err
	}
	sNorm, err := benchkit.Sweep("sql+normalize", sz, o3Run(baseline.StrategySQLNormalize, incumben))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sNorm)
	return fig, nil
}

// fig16b: O3 align vs sql+normalize on the random dataset (more splitting
// points, larger temporal join result).
func fig16b() (benchkit.Figure, error) {
	sz := sizes([]int{10000, 20000, 40000, 80000})
	fig := benchkit.Figure{ID: "16b", Title: "O3 on random data: align vs sql+normalize", XLabel: "input tuples total"}
	gen := func(n int) *relation.Relation { return dataset.RandomIncumbenLike(n, *seed) }
	sAlign, err := benchkit.Sweep("align", sz, o3Run(baseline.StrategyAlign, gen))
	if err != nil {
		return fig, err
	}
	sNorm, err := benchkit.Sweep("sql+normalize", sz, o3Run(baseline.StrategySQLNormalize, gen))
	if err != nil {
		return fig, err
	}
	fig.Series = append(fig.Series, sAlign, sNorm)
	return fig, nil
}

// runBenchPanels measures the Fig. 13/14 panels (the benchmarks whose
// trajectory BENCH_PR*.json tracks) with testing.Benchmark — ns/op,
// allocs/op, B/op and output rows — and writes them as the "after"
// section of path, preserving any committed "before" baseline.
func runBenchPanels(path string) error {
	normalize := func(attrs []string, flags plan.Flags, n int) func() (int, error) {
		return func() (int, error) {
			out, err := core.New(flags).Normalize(incumben(n), incumben(n), attrs...)
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}
	}
	panels := []struct {
		name string
		n    int
		run  func() (int, error)
	}{
		{"fig13/normalize-ssn/merge", 8000, normalize([]string{"ssn"}, plan.Flags{EnableMergeJoin: true, EnableSort: true}, 8000)},
		{"fig13/normalize-ssn/hash", 8000, normalize([]string{"ssn"}, plan.Flags{EnableHashJoin: true}, 8000)},
		{"fig13/normalize-ssn/nestloop", 1000, normalize([]string{"ssn"}, plan.Flags{EnableNestLoop: true}, 1000)},
		{"fig14/normalize-empty", 1000, normalize(nil, plan.DefaultFlags(), 1000)},
		{"fig14/normalize-pcn", 8000, normalize([]string{"pcn"}, plan.DefaultFlags(), 8000)},
		{"fig14/normalize-ssn", 8000, normalize([]string{"ssn"}, plan.DefaultFlags(), 8000)},
	}
	points := make([]benchkit.BenchPoint, 0, len(panels))
	for _, p := range panels {
		pt, err := benchkit.MeasureBench(p.name, p.n, p.run)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-32s n=%-6d %12.0f ns/op %8d allocs/op %10d B/op %8d rows\n",
			pt.Name, pt.N, pt.NsPerOp, pt.AllocsPerOp, pt.BytesPerOp, pt.Rows)
		points = append(points, pt)
	}
	return benchkit.UpdateBenchFile(path, points)
}

// runOptBenchPanels measures filtered Fig. 13-style workloads through the
// SQL front end, once with the optimizer disabled (the "before" section)
// and once with the optimizer plus ANALYZE statistics (the "after"
// section): the deltas isolate what stats-driven predicate pushdown and
// strategy choice buy on selective queries over temporal operators.
func runOptBenchPanels(path string) error {
	const n = 8000
	relA := incumben(n)
	relB := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: *seed + 1})

	// A predicate keeping ~10% of employees: ssn is dense in [0, employees).
	var maxSSN int64
	for _, t := range relA.Tuples {
		if v := t.Vals[0].Int(); v > maxSSN {
			maxSSN = v
		}
	}
	k := maxSSN / 10

	mkEngine := func(disableOpt bool) (*sqlish.Engine, error) {
		f := plan.DefaultFlags()
		f.DisableOptimizer = disableOpt
		e := sqlish.NewEngine(f)
		e.Register("a", relA)
		e.Register("b", relB)
		if !disableOpt {
			for _, name := range []string{"a", "b"} {
				if _, err := e.Analyze(name); err != nil {
					return nil, err
				}
			}
		}
		return e, nil
	}

	queries := []struct{ name, sql string }{
		{"pr4/filtered-align", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x WHERE ssn <= %d", k)},
		{"pr4/filtered-normalize", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x WHERE ssn <= %d", k)},
		{"pr4/filtered-join", fmt.Sprintf(
			"SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", k)},
	}

	measure := func(disableOpt bool) ([]benchkit.BenchPoint, error) {
		e, err := mkEngine(disableOpt)
		if err != nil {
			return nil, err
		}
		label := "opt"
		if disableOpt {
			label = "noopt"
		}
		points := make([]benchkit.BenchPoint, 0, len(queries))
		for _, q := range queries {
			pt, err := benchkit.MeasureBench(q.name, n, func() (int, error) {
				rel, _, err := e.Query(q.sql)
				if err != nil {
					return 0, err
				}
				return rel.Len(), nil
			})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%-28s %-6s n=%-6d %12.0f ns/op %8d allocs/op %8d rows\n",
				pt.Name, label, pt.N, pt.NsPerOp, pt.AllocsPerOp, pt.Rows)
			points = append(points, pt)
		}
		return points, nil
	}

	before, err := measure(true)
	if err != nil {
		return err
	}
	after, err := measure(false)
	if err != nil {
		return err
	}
	return benchkit.WriteBenchFile(path, benchkit.BenchFile{
		Description: "Filtered Fig. 13-style SQL workloads on Incumben (n=8000): 'before' runs with plan.Flags.DisableOptimizer (the analyzer's literal plans), 'after' with the PR 4 cost-based optimizer after ANALYZE (stats-fed estimates, predicate pushdown into ALIGN/NORMALIZE/joins). Regenerate: go run ./cmd/experiments -bench-opt BENCH_PR4.json",
		Before:      before,
		After:       after,
	})
}

// runColBenchPanels measures the PR 4 filtered workloads with the row
// executor forced (plan.Flags.DisableColumnar, the "before" section) and
// with the vectorized pipeline (the "after" section). Both sides run the
// stats-fed optimizer, so the deltas isolate what the columnar batches
// buy: selection-vector filters, pointer-shuffle projections and the
// vector-encoded fused adjust.
func runColBenchPanels(path string) error {
	const n = 8000
	relA := incumben(n)
	relB := dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: *seed + 1})

	var maxSSN int64
	for _, t := range relA.Tuples {
		if v := t.Vals[0].Int(); v > maxSSN {
			maxSSN = v
		}
	}
	k := maxSSN / 10

	mkEngine := func(disableCol bool) (*sqlish.Engine, error) {
		f := plan.DefaultFlags()
		f.DisableColumnar = disableCol
		e := sqlish.NewEngine(f)
		e.Register("a", relA)
		e.Register("b", relB)
		for _, name := range []string{"a", "b"} {
			if _, err := e.Analyze(name); err != nil {
				return nil, err
			}
		}
		return e, nil
	}

	queries := []struct{ name, sql string }{
		{"pr6/filtered-align", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x WHERE ssn <= %d", k)},
		{"pr6/filtered-normalize", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x WHERE ssn <= %d", k)},
		{"pr6/filtered-join", fmt.Sprintf(
			"SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", k)},
	}

	measure := func(disableCol bool) ([]benchkit.BenchPoint, error) {
		e, err := mkEngine(disableCol)
		if err != nil {
			return nil, err
		}
		label := "columnar"
		if disableCol {
			label = "row"
		}
		points := make([]benchkit.BenchPoint, 0, len(queries))
		for _, q := range queries {
			pt, err := benchkit.MeasureBench(q.name, n, func() (int, error) {
				rel, _, err := e.Query(q.sql)
				if err != nil {
					return 0, err
				}
				return rel.Len(), nil
			})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%-28s %-8s n=%-6d %12.0f ns/op %8d allocs/op %8d rows\n",
				pt.Name, label, pt.N, pt.NsPerOp, pt.AllocsPerOp, pt.Rows)
			points = append(points, pt)
		}
		return points, nil
	}

	before, err := measure(true)
	if err != nil {
		return err
	}
	after, err := measure(false)
	if err != nil {
		return err
	}
	return benchkit.WriteBenchFile(path, benchkit.BenchFile{
		Description: "Filtered Fig. 13-style SQL workloads on Incumben (n=8000): 'before' forces the row executor (plan.Flags.DisableColumnar) for every operator except the fused ALIGN/NORMALIZE operator, which is columnar in every plan; 'after' runs the vectorized pipeline (columnar batches with selection vectors, vector key encoding, fused-adjust sweep over time columns). Both sides use the stats-fed optimizer. Regenerate: go run ./cmd/experiments -bench-col <file>.json",
		Before:      before,
		After:       after,
	})
}

// runStorageBenchPanels measures the PR 8 disk-serving path: both
// Incumben relations are persisted as interval-partitioned columnar
// segments in a throwaway store and loaded back (served from the mapped
// file bytes), then the PR 6 filtered panels plus valid-time-filtered
// workloads run with zone-map pruning disabled (plan.Flags.
// DisablePruning, the "before" section) and enabled (the "after"
// section). Both sides use the stats-fed optimizer over segment-backed
// scans, so the deltas isolate what pruning buys — the all-attribute
// panels double as a disk-vs-disk sanity series (pruning cannot help a
// filter that every segment satisfies, so those deltas should be noise).
func runStorageBenchPanels(path string) error {
	const n = 8000
	dir, err := os.MkdirTemp("", "talign-bench-storage")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	st.SegmentRows = 512

	rels := map[string]*relation.Relation{
		"a": incumben(n),
		"b": dataset.Incumben(dataset.IncumbenConfig{Rows: n, Seed: *seed + 1}),
	}
	disk := map[string]*relation.Relation{}
	for name, rel := range rels {
		if err := st.CreateTable(name, rel); err != nil {
			return err
		}
		if disk[name], err = st.Load(name); err != nil {
			return err
		}
	}

	maxSSN := rels["a"].Tuples[0].Vals[0].Int()
	minTS, maxTS := rels["a"].Tuples[0].T.Ts, rels["a"].Tuples[0].T.Ts
	for _, t := range rels["a"].Tuples {
		if v := t.Vals[0].Int(); v > maxSSN {
			maxSSN = v
		}
		if t.T.Ts < minTS {
			minTS = t.T.Ts
		}
		if t.T.Ts > maxTS {
			maxTS = t.T.Ts
		}
	}
	k := maxSSN / 10
	// Top decile of the valid-time domain: segments are partitioned in
	// (TS, TE) order, so ~90% of them fall wholly below t0 and prune.
	t0 := minTS + 9*(maxTS-minTS)/10

	mkEngine := func(disablePrune bool) (*sqlish.Engine, error) {
		f := plan.DefaultFlags()
		f.DisablePruning = disablePrune
		e := sqlish.NewEngine(f)
		e.Register("a", disk["a"])
		e.Register("b", disk["b"])
		for _, name := range []string{"a", "b"} {
			if _, err := e.Analyze(name); err != nil {
				return nil, err
			}
		}
		return e, nil
	}

	queries := []struct{ name, sql string }{
		{"pr8/time-filtered-scan", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM a WHERE Ts >= %d", t0)},
		{"pr8/time-filtered-align", fmt.Sprintf(
			"SELECT ssn, Ts, Te FROM ((SELECT ssn, pcn FROM a WHERE Ts >= %d) q ALIGN b ON q.ssn = b.ssn) x", t0)},
		{"pr8/filtered-align", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x WHERE ssn <= %d", k)},
		{"pr8/filtered-normalize", fmt.Sprintf(
			"SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x WHERE ssn <= %d", k)},
		{"pr8/filtered-join", fmt.Sprintf(
			"SELECT a.ssn s1, b.pcn p2 FROM a JOIN b ON a.ssn = b.ssn WHERE b.pcn <= %d AND a.pcn >= 0", k)},
	}

	measure := func(disablePrune bool) ([]benchkit.BenchPoint, error) {
		e, err := mkEngine(disablePrune)
		if err != nil {
			return nil, err
		}
		label := "pruned"
		if disablePrune {
			label = "full"
		}
		points := make([]benchkit.BenchPoint, 0, len(queries))
		for _, q := range queries {
			pt, err := benchkit.MeasureBench(q.name, n, func() (int, error) {
				rel, _, err := e.Query(q.sql)
				if err != nil {
					return 0, err
				}
				return rel.Len(), nil
			})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%-28s %-8s n=%-6d %12.0f ns/op %8d allocs/op %8d rows\n",
				pt.Name, label, pt.N, pt.NsPerOp, pt.AllocsPerOp, pt.Rows)
			points = append(points, pt)
		}
		return points, nil
	}

	before, err := measure(true)
	if err != nil {
		return err
	}
	after, err := measure(false)
	if err != nil {
		return err
	}
	return benchkit.WriteBenchFile(path, benchkit.BenchFile{
		Description: "Disk-backed workloads on Incumben (n=8000, 512-row interval-partitioned segments loaded from an on-disk store): the PR 6 filtered panels plus valid-time-filtered scan/ALIGN. 'before' sets plan.Flags.DisablePruning (every segment scanned), 'after' enables zone-map segment pruning. Both sides use the stats-fed optimizer over segment-backed scans. Regenerate: go run ./cmd/experiments -bench-storage BENCH_PR8.json",
		Before:      before,
		After:       after,
	})
}
