package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks a workload to a few seconds on tiny relations.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg, err := newConfig(workload, 7, 3*time.Second, trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	cfg.Rows = 9000 // three 4096-row segments, so literal windows prune
	cfg.IngestRows = 500
	cfg.IngestEvery = 10
	cfg.Windows = 8
	cfg.Setups = 2
	return cfg
}

func metricMap(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// TestWorkloads runs every workload at smoke scale, untraced and traced,
// with every result verified against the embedded engine.
func TestWorkloads(t *testing.T) {
	for _, workload := range []string{"window-mix", "stream-single", "stream-dist"} {
		for _, trace := range []bool{false, true} {
			name := workload + "/untraced"
			if trace {
				name = workload + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), smokeConfig(t, workload, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(res.Info, "\n"))
				}
				specs, nonzero := endToEndSpecs, []string(nil)
				for _, s := range endToEndSpecs {
					nonzero = append(nonzero, s.Name)
				}
				if trace {
					specs = perLayerSpecs
					nonzero = []string{"sqlish.parse_us", "sqlish.prepare_us", "server.open_us", "exec.next_ns_per_row",
						"exec.first_batch_ms", "storage.create_ms", "storage.load_ms", "storage.bytes_per_user_byte",
						"wire.encode_ns_per_row", "wire.bytes_per_row", "transport.frames_per_query",
						"transport.write_us_per_frame", "client.decode_ns_per_row", "trace.overhead_ratio"}
					if workload == "window-mix" {
						nonzero = append(nonzero, "storage.segments_scanned_per_query", "storage.pruned_ratio")
					}
					if workload == "stream-dist" {
						nonzero = append(nonzero, "distsql.stage_s", "distsql.fragments_per_query",
							"distsql.rows_shipped_per_result_row", "distsql.bytes_shipped_per_result_row",
							"distsql.worker_busy_ms_max", "distsql.worker_skew", "distsql.gather_all_ratio")
					}
				}
				got := metricMap(res.Metrics)
				if len(got) != len(specs) {
					t.Fatalf("got %d metrics, want %d", len(got), len(specs))
				}
				for _, s := range specs {
					if m, ok := got[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.Name, m, s.Unit)
					}
				}
				for _, name := range nonzero {
					if got[name].Value <= 0 {
						t.Errorf("metric %s = %v, want > 0", name, got[name].Value)
					}
				}
			})
		}
	}
}

// TestMismatchFailsRun proves the result check bites: with every
// reference checksum perturbed, the run must fail on its first query.
func TestMismatchFailsRun(t *testing.T) {
	cfg := smokeConfig(t, "stream-single", false)
	cfg.skewRef = true
	if _, err := run(context.Background(), cfg, io.Discard); !errors.Is(err, errMismatch) {
		t.Fatalf("run with a wrong reference: err = %v, want a mismatch", err)
	}
}

// digests runs every shape once through a fresh set-up of workload.
func digests(t *testing.T, workload string) map[string]digest {
	t.Helper()
	b := &bench{cfg: smokeConfig(t, workload, false), shapes: streamShapes}
	if err := b.prepareInputs(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.setUpAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer b.sys.close()
	out := map[string]digest{}
	for _, sh := range b.shapes {
		rows, err := b.sys.db.Query(context.Background(), sh.SQL)
		if err != nil {
			t.Fatal(err)
		}
		var d digest
		var buf []byte
		for rows.Next() {
			buf, d.Sum = addRow(buf, d.Sum, rows.Values())
			d.Rows++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		out[sh.Name] = d
	}
	return out
}

// TestDistMatchesSingle checks stream-dist against stream-single shape by
// shape on the same seed.
func TestDistMatchesSingle(t *testing.T) {
	single, dist := digests(t, "stream-single"), digests(t, "stream-dist")
	for name, d := range single {
		if d.Rows == 0 || dist[name] != d {
			t.Errorf("%s: single %+v, dist %+v", name, d, dist[name])
		}
	}
}

// TestPreparedMatchesAdhoc checks that prepared and ad hoc window queries
// over the same window return identical rows.
func TestPreparedMatchesAdhoc(t *testing.T) {
	b := &bench{cfg: smokeConfig(t, "window-mix", false), shapes: windowShapes}
	if err := b.prepareInputs(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.setUpAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer b.sys.close()
	if err := b.reference(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.newClients(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := b.clients[0]
	for si := range b.shapes {
		for wi, w := range b.windows {
			o := op{Shape: si, Window: wi, Shift: w.Slack}
			adhoc := b.read(context.Background(), c, o)
			o.Prepared = true
			prepared := b.read(context.Background(), c, o)
			if adhoc.Err != nil || prepared.Err != nil || adhoc.Wrong || prepared.Wrong || adhoc.Rows != prepared.Rows {
				t.Fatalf("%s window %d: adhoc %+v, prepared %+v", b.shapes[si].Name, wi, adhoc, prepared)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the emitted metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newConfig(w.Name, 1, time.Second, false); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndSpecs)
	check("per_layer", spec.PerLayer, perLayerSpecs)
}

// TestResultLine checks the last stdout line's shape.
func TestResultLine(t *testing.T) {
	var buf bytes.Buffer
	res := &result{Correct: true, Attempted: 3, Metrics: []metric{{Name: "setup_s", Value: 0.5, Unit: "s"}}}
	if err := printResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, buf.String())
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has extra keys: %s", buf.String())
	}
}

// TestStealShare checks that an operation gets the stolen share of the
// shortest sampled interval around it.
func TestStealShare(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tick := func(i int) time.Time { return t0.Add(time.Duration(i) * stealTick) }
	c := &stealClock{
		at:  []time.Time{tick(0), tick(1), tick(2), tick(3)},
		cpu: []hostCPU{{0, 0}, {40, 10}, {90, 10}, {120, 30}},
	}
	for _, tc := range []struct {
		from, to time.Time
		want     float64
	}{
		{tick(0), tick(1), 0.2}, // 10 of 50 ticks stolen
		{tick(1).Add(time.Millisecond), tick(2).Add(-time.Millisecond), 0}, // inside a steal-free interval
		{tick(1), tick(3), 20.0 / 100},                                     // two intervals
		{tick(0).Add(-time.Second), tick(3).Add(time.Second), 30.0 / 150},  // clamped to the samples
	} {
		if got := c.share(tc.from, tc.to); got != tc.want {
			t.Errorf("share(%v, %v) = %v, want %v", tc.from.Sub(t0), tc.to.Sub(t0), got, tc.want)
		}
	}
	if got := stolenShare(hostCPU{5, 5}, hostCPU{5, 5}); got != 0 {
		t.Errorf("stolenShare over no CPU time = %v, want 0", got)
	}
}
