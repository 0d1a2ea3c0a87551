package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricSpec names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares.
type metricSpec struct{ Name, Unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"success_ratio", "ratio"},
	{"queries_per_s", "1/s"},
	{"rows_per_s", "1/s"},
	{"alloc_mb_per_query", "MB"},
	{"cpu_ms_per_query", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"prepared_p50_ms", "ms"},
	{"adhoc_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"report_p50_ms", "ms"},
	{"first_row_p50_ms", "ms"},
}

var perLayerSpecs = []metricSpec{
	{"sqlish.parse_us", "us"},
	{"sqlish.prepare_us", "us"},
	{"server.open_us", "us"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.plans_per_query", "plans/query"},
	{"server.gate_waiting_max", "count"},
	{"exec.next_ns_per_row", "ns/row"},
	{"exec.first_batch_ms", "ms"},
	{"exec.allocs_per_row", "allocs/row"},
	{"storage.segments_scanned_per_query", "segments/query"},
	{"storage.pruned_ratio", "ratio"},
	{"storage.create_ms", "ms"},
	{"storage.load_ms", "ms"},
	{"storage.bytes_per_user_byte", "ratio"},
	{"wire.encode_ns_per_row", "ns/row"},
	{"wire.bytes_per_row", "B/row"},
	{"transport.frames_per_query", "frames/query"},
	{"transport.write_us_per_frame", "us/frame"},
	{"client.decode_ns_per_row", "ns/row"},
	{"client.allocs_per_row", "allocs/row"},
	{"distsql.stage_s", "s"},
	{"distsql.fragments_per_query", "count/query"},
	{"distsql.rows_shipped_per_result_row", "rows/row"},
	{"distsql.bytes_shipped_per_result_row", "B/row"},
	{"distsql.worker_busy_ms_max", "ms"},
	{"distsql.worker_skew", "ratio"},
	{"distsql.merge_ns_per_row", "ns/row"},
	{"distsql.gather_all_ratio", "ratio"},
	{"distsql.retries", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// metrics turns values keyed by name into the spec's ordered list.
func metrics(specs []metricSpec, vals map[string]float64) []metric {
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		out = append(out, metric{Name: s.Name, Value: vals[s.Name], Unit: s.Unit})
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation (xs sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// tailQ is the tail percentile n samples support: p90, or the highest
// percentile with at least ten samples beyond it, but never below p50.
// The tail stops at p90 because on a shared host the slowest few percent
// of reads are those that bursts of steal hit, too short for the steal
// adjustment to see, and their share varies from run to run.
func tailQ(n int) float64 {
	return math.Max(0.5, math.Min(0.9, 1-10/float64(max(n, 1))))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// classStats groups the successful reads of a phase by class.
type classStats struct {
	lat, first map[int][]float64 // milliseconds, sorted
	reads      []float64         // every read's latency, sorted
}

func (b *bench) classes(ph phase) classStats {
	cs := classStats{lat: map[int][]float64{}, first: map[int][]float64{}}
	for _, s := range ph.samples {
		if s.Op.Ingest || s.Err != nil || s.Wrong {
			continue
		}
		k := s.Op.class()
		lat := ms(s.Lat) * s.Scale
		cs.lat[k] = append(cs.lat[k], lat)
		cs.reads = append(cs.reads, lat)
		if s.Rows > 0 {
			cs.first[k] = append(cs.first[k], ms(s.First)*s.Scale)
		}
	}
	for _, m := range []map[int][]float64{cs.lat, cs.first} {
		for _, xs := range m {
			sort.Float64s(xs)
		}
	}
	sort.Float64s(cs.reads)
	return cs
}

// meanOver averages f over the given classes that have samples in m.
func meanOver(m map[int][]float64, classes []int, f func([]float64) float64) float64 {
	sum, n := 0.0, 0
	for _, k := range classes {
		if xs := m[k]; len(xs) > 0 {
			sum += f(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencyP50 is the class-mean median latency: the mean over the read
// classes of each class's median, which does not move with the mix.
func (b *bench) latencyP50(cs classStats) float64 {
	return meanOver(cs.lat, b.allClasses(), median)
}

func (b *bench) allClasses() []int {
	var out []int
	for si := range b.shapes {
		out = append(out, 2*si, 2*si+1)
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (b *bench) endToEnd(ph phase, setupS float64) []metric {
	cs := b.classes(ph)
	var prep, adhoc, streaming []int
	for si, sh := range b.shapes {
		adhoc = append(adhoc, 2*si)
		prep = append(prep, 2*si+1)
		if sh.Streaming {
			streaming = append(streaming, 2*si, 2*si+1)
		}
	}
	report := 0.0
	for si := range b.shapes {
		report += meanOver(cs.lat, []int{2 * si, 2*si + 1}, median)
	}
	var ingest []float64
	var rows, done, failed int
	for _, s := range ph.samples {
		if s.Err != nil || s.Wrong {
			failed++
			continue
		}
		done++
		rows += s.Rows
		if s.Op.Ingest {
			ingest = append(ingest, ms(s.Lat)*s.Scale)
		}
	}
	sort.Float64s(ingest)
	sec := ph.refWall.Seconds()
	vals := map[string]float64{
		"setup_s":          setupS,
		"success_ratio":    float64(len(ph.samples)-failed) / float64(max(len(ph.samples), 1)),
		"queries_per_s":    float64(done) / sec,
		"rows_per_s":       float64(rows) / sec,
		"latency_p50_ms":   b.latencyP50(cs),
		"latency_p90_ms":   quantile(cs.reads, tailQ(len(cs.reads))),
		"prepared_p50_ms":  meanOver(cs.lat, prep, median),
		"adhoc_p50_ms":     meanOver(cs.lat, adhoc, median),
		"ingest_p50_ms":    median(ingest),
		"report_p50_ms":    report,
		"first_row_p50_ms": meanOver(cs.first, streaming, median),
	}
	if done > 0 {
		vals["alloc_mb_per_query"] = float64(ph.after.totalAlloc-ph.before.totalAlloc) / 1e6 / float64(done)
		vals["cpu_ms_per_query"] = ms(ph.after.cpu-ph.before.cpu) / float64(done)
	}
	return metrics(endToEndSpecs, vals)
}

// classTable lists each class's sample count and steal-adjusted
// percentiles, and its median as measured.
func (b *bench) classTable(ph phase) []string {
	cs := b.classes(ph)
	raw := map[int][]float64{}
	for _, s := range ph.samples {
		if !s.Op.Ingest && s.Err == nil && !s.Wrong {
			raw[s.Op.class()] = append(raw[s.Op.class()], ms(s.Lat))
		}
	}
	var out []string
	for _, k := range b.allClasses() {
		xs := cs.lat[k]
		sort.Float64s(raw[k])
		o := op{Shape: k / 2, Prepared: k%2 == 1}
		out = append(out, fmt.Sprintf("class %-28s n=%-6d p50=%.3fms p%.0f=%.3fms (as measured p50=%.3fms)", className(b.shapes, o),
			len(xs), median(xs), 100*tailQ(len(xs)), quantile(xs, tailQ(len(xs))), median(raw[k])))
	}
	return out
}

// perLayer computes the per-layer metrics: counter ratios from the
// untraced half, span-derived times from the traced half.
func (b *bench) perLayer(untraced, traced phase, spans []span) []metric {
	vals := map[string]float64{}
	a, z := untraced.before, untraced.after
	var reads, done, rows float64
	for _, s := range untraced.samples {
		if s.Err == nil && !s.Wrong {
			done++
			rows += float64(s.Rows)
			if !s.Op.Ingest {
				reads++
			}
		}
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	d := func(name string) float64 { return float64(z.dist[name] - a.dist[name]) }
	hits, misses := float64(z.hits-a.hits), float64(z.misses-a.misses)
	scanned, pruned := float64(z.scanned-a.scanned), float64(z.pruned-a.pruned)
	vals["server.plan_cache_hit_ratio"] = div(hits, hits+misses)
	vals["server.plans_per_query"] = div(float64(z.plans-a.plans), done)
	vals["server.gate_waiting_max"] = float64(untraced.gateMax)
	vals["storage.segments_scanned_per_query"] = div(scanned, reads)
	vals["storage.pruned_ratio"] = div(pruned, scanned+pruned)
	vals["distsql.stage_s"] = b.sys.stage.Seconds()
	vals["distsql.fragments_per_query"] = div(d("talignd_fragments_total"), done)
	vals["distsql.rows_shipped_per_result_row"] = div(d("talignd_dist_rows_in_total"), rows)
	vals["distsql.bytes_shipped_per_result_row"] = div(d("talignd_dist_bytes_in_total"), rows)
	vals["distsql.gather_all_ratio"] = div(d("talignd_dist_gather_all_total"), d("talignd_dist_queries_total"))
	vals["distsql.retries"] = d("talignd_fragment_retries_total")
	if base := b.latencyP50(b.classes(untraced)); base > 0 {
		vals["trace.overhead_ratio"] = b.latencyP50(b.classes(traced)) / base
	}
	for k, v := range b.spanMetrics(spans) {
		vals[k] = v
	}
	return metrics(perLayerSpecs, vals)
}

// spanMetrics derives the per-layer times from the traced half's spans.
func (b *bench) spanMetrics(spans []span) map[string]float64 {
	byName := map[string][]span{}
	byID := map[uint64]span{}
	children := map[uint64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	medianOf := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur())/float64(unit))
		}
		sort.Float64s(xs)
		return median(xs)
	}
	perRow := func(name string) (ns, allocs float64) {
		var t time.Duration
		var rows, a int64
		for _, s := range byName[name] {
			t += s.dur()
			rows += s.Rows
			a += s.Allocs
		}
		if rows == 0 {
			return 0, 0
		}
		return float64(t) / float64(rows), float64(a) / float64(rows)
	}
	vals := map[string]float64{
		"sqlish.parse_us":     medianOf("sqlish.parse", time.Microsecond),
		"sqlish.prepare_us":   medianOf("sqlish.prepare", time.Microsecond),
		"server.open_us":      medianOf("server.open", time.Microsecond),
		"exec.first_batch_ms": medianOf("exec.first_batch", time.Millisecond),
		"storage.create_ms":   medianOf("storage.create", time.Millisecond),
		"storage.load_ms":     medianOf("storage.load", time.Millisecond),
	}
	vals["exec.next_ns_per_row"], vals["exec.allocs_per_row"] = perRow("exec.drain")
	vals["client.decode_ns_per_row"], vals["client.allocs_per_row"] = perRow("client.decode")
	if loads := byName["storage.load"]; len(loads) > 0 && b.ingestBytes > 0 {
		vals["storage.bytes_per_user_byte"] = float64(loads[len(loads)-1].Bytes) / float64(b.ingestBytes)
	}

	// wire: the encode probe's time less the plain scan of the same rows.
	var wireT time.Duration
	var wireRows, wireBytes int64
	for _, s := range byName["wire.encode"] {
		wireT += s.dur()
		wireRows += s.Rows
		wireBytes += s.Bytes
	}
	for _, s := range byName["wire.scan"] {
		wireT -= s.dur()
	}
	if wireRows > 0 {
		vals["wire.encode_ns_per_row"] = max(0, float64(wireT)/float64(wireRows))
		vals["wire.bytes_per_row"] = float64(wireBytes) / float64(wireRows)
	}

	// transport: front-server requests made by read queries.
	var frames int64
	var requests int
	var writeT time.Duration
	var busyMax, skew []float64
	var mergeT time.Duration
	var mergeRows int64
	for _, req := range byName["transport.request"] {
		q, ok := byID[req.Parent]
		if !ok || q.Name != "client.query" || q.Class == "ingest" || req.Class != "/query/stream" {
			continue
		}
		requests++
		frames += req.Rows
		busy := map[string]time.Duration{}
		for _, ch := range children[req.ID] {
			switch ch.Name {
			case "transport.write":
				writeT += ch.dur()
			case "distsql.fragment":
				busy[ch.Class] += ch.dur()
			}
		}
		if b.sys.coord == nil {
			continue
		}
		var most, sum time.Duration
		for _, w := range b.sys.coord.Topology().Workers {
			most = max(most, busy[w.Name])
			sum += busy[w.Name]
		}
		busyMax = append(busyMax, ms(most))
		if sum > 0 {
			skew = append(skew, float64(most)/(float64(sum)/float64(len(b.sys.coord.Topology().Workers))))
		}
		mergeT += req.dur() - coveredTime(req, children[req.ID])
		mergeRows += q.Rows
	}
	if requests > 0 {
		vals["transport.frames_per_query"] = float64(frames) / float64(requests)
	}
	if frames > 0 {
		vals["transport.write_us_per_frame"] = float64(writeT) / 1e3 / float64(frames)
	}
	sort.Float64s(busyMax)
	sort.Float64s(skew)
	vals["distsql.worker_busy_ms_max"] = median(busyMax)
	vals["distsql.worker_skew"] = median(skew)
	if mergeRows > 0 {
		vals["distsql.merge_ns_per_row"] = float64(mergeT) / float64(mergeRows)
	}
	return vals
}

// coveredTime is how much of parent's interval the children cover.
func coveredTime(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = math.MinInt64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}
