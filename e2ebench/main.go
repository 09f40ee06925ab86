// Command e2ebench is the repository's end-to-end benchmark: one program
// that runs a whole deployment of the pipeline — fleet → batched client →
// HTTP collector (optionally an edge→root tree) → live rankings →
// offline analysis — checks every answer, and prints every metric by
// name and unit. See README.md for the workloads, the metrics, and the
// per-layer budget.
//
//	go run . --workload ccrypt-fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any verdict fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "ccrypt-fleet | bc-study | replay-tree")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	traceOn := flag.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is printed before the result so every figure carries the
// machine and code it was measured on.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Sizes      sizes  `json:"sizes"`
	Passes     int    `json:"timed_passes"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run sets the workload up sizes.SetupReps times, runs one untimed warm-up
// pass, then timed passes while they fit in budget (and at least
// sizes.MinPasses of them), verifying every pass. It writes the
// environment block and a human-readable table to out and returns the
// result line.
func run(w *workload, seed int64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	var st *state
	setupTimes := make([]float64, 0, w.sizes.SetupReps)
	for i := 0; i < w.sizes.SetupReps; i++ {
		st = nil // every repetition starts from the same settled heap
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(seed, w.sizes)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		st = s
	}

	b := &bench{traced: traced}
	// Warm-up: one full pass whose figures are discarded (the first pass
	// pays for lazily grown pools and cold caches), but whose verdicts
	// still count.
	warm, err := b.runPass(w, st, 0)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	agg := &totals{}
	agg.addIsolate(warm)
	agg.verdicts = append(agg.verdicts, warm.verdicts...)
	agg.attempted += warm.attempted
	agg.acked += warm.acked

	// A pass starts only if one as long as the last still fits in the
	// budget, so a run overshoots --seconds by at most the pass-to-pass
	// variation.
	start := time.Now()
	var last time.Duration
	for d := 1; d <= w.sizes.MinPasses || time.Since(start)+last <= budget; d++ {
		t0 := time.Now()
		p, err := b.runPass(w, st, d)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, d, err)
		}
		last = time.Since(t0)
		agg.add(p)
		if d < w.sizes.IsolatePasses {
			agg.addIsolate(p)
		}
	}

	env := environment{
		Workload: w.name, Seed: seed, Commit: commit(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Sizes: w.sizes, Passes: agg.passes,
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envLine)

	res := &result{
		Correct:   len(agg.failedVerdicts()) == 0,
		Attempted: agg.attempted,
		Failed:    agg.attempted - agg.acked,
	}
	if traced {
		res.Metrics = agg.layerMetrics()
	} else {
		res.Metrics = agg.endToEnd(median(setupTimes))
	}
	for _, v := range agg.failedVerdicts() {
		fmt.Fprintf(out, "FAILED verdict: %s\n", v)
	}
	fmt.Fprintf(out, "%d verdicts checked, %d failed; %d posts and %d reads sampled\n",
		len(agg.verdicts), len(agg.failedVerdicts()), len(agg.postMs), len(agg.readMs))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-22s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}
