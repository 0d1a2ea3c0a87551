// Command perfbench is talign's end-to-end benchmark. One process starts
// in-process talignd servers on loopback HTTP, loads generated Incumben
// data, and drives one named workload through the public client
// (talign.Open("talignd://…")) for a fixed time, verifying every result
// against the embedded talign:// engine:
//
//	window-mix     2 closed-loop clients, one disk-backed talignd, random
//	               30-day valid-time windows, prepared and ad hoc, with
//	               periodic CREATE TABLE … FROM CSV / DROP TABLE
//	stream-single  1 closed-loop client, one in-memory talignd, four
//	               large-result ALIGN/NORMALIZE shapes in a fixed cycle
//	stream-dist    stream-single through a coordinator over 2 in-process
//	               workers (workers share one host)
//
// Run it from the root of the checkout:
//
//	bash perfbench/run.sh --workload stream-single --seed 1 --seconds 25 --trace 0
//
// With -trace 0 it prints every end-to-end metric; with -trace 1 it runs
// an untraced half and a traced half and prints the per-layer metrics,
// including the tracing overhead. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; any result mismatch exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: window-mix, stream-single or stream-dist")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for data files and the span dump")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg, err := newConfig(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.Dir, err = os.MkdirTemp(*dir, "perfbench-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err == nil && cfg.Trace {
		err = dumpSpans(filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.json", cfg.Workload, cfg.Seed)), res)
	}
	os.RemoveAll(cfg.Dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line: the last line of stdout.
func printResult(w io.Writer, res *result) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricJSON{}}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// dumpSpans writes the traced run's spans, with the machine and workload
// description, as one JSON document.
func dumpSpans(path string, res *result) error {
	raw, err := json.Marshal(struct {
		Info  []string `json:"info"`
		Spans []span   `json:"spans"`
	}{res.Info, res.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
