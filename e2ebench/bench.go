package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/collect"
	"cbi/internal/report"
	"cbi/internal/telemetry"
)

// bench carries what every pass of one run shares.
type bench struct {
	traced bool
	ht     handlerTimes // traced runs only
	clk    *clock       // the current pass's clock
}

// handlers returns the timing sink for served handlers: nil in an
// untimed run, so end-to-end figures carry no wrapper.
func (b *bench) handlers() *handlerTimes {
	if b.traced {
		return &b.ht
	}
	return nil
}

// runPass runs one pass from a settled heap.
func (b *bench) runPass(w *workload, st *state, d int) (*passResult, error) {
	runtime.GC()
	b.ht = handlerTimes{}
	p, err := w.pass(b, st, d)
	if b.clk != nil {
		b.clk.halt() // stops the heap sampler if the pass failed on the clock
		b.clk = nil
	}
	return p, err
}

// verdict is one correctness check; err is nil when it passed.
type verdict struct {
	name string
	err  error
}

// passResult is what one deployment (or replay pass) measured.
type passResult struct {
	answer    float64 // seconds on the clock: first run to checked answer
	analyze   float64 // seconds in the offline analysis step
	attempted int
	acked     int // acknowledged and present in the final state
	postMs    []float64
	readMs    []float64
	heapPeak  uint64
	isolate   []int
	verdicts  []verdict
	layers    layerSample
}

func (p *passResult) check(name string, err error) {
	p.verdicts = append(p.verdicts, verdict{name: name, err: err})
}

func (p *passResult) checkCount(name string, n uint64) {
	var err error
	if n != 0 {
		err = fmt.Errorf("count is %d", n)
	}
	p.check(name, err)
}

// checkRanking requires the served ranking to equal the offline one bit
// for bit, and its top-1 to be the planted predicate.
func (p *passResult) checkRanking(got *rankings, want []score.Predicate, s *study) {
	var err error
	if got.Ranked != len(want) || len(got.Top) != len(want) {
		err = fmt.Errorf("served %d of %d ranked predicates, offline ranks %d", len(got.Top), got.Ranked, len(want))
	}
	for i := 0; err == nil && i < len(want); i++ {
		g, w := got.Top[i], want[i]
		if g.Rank != i+1 || g.Counter != w.Counter || g.Importance != w.Importance ||
			g.Increase != w.Increase || g.Failure != w.Failure || g.Context != w.Context ||
			g.TrueFail != w.TrueFail || g.TrueOK != w.TrueOK {
			err = fmt.Errorf("rank %d: served %+v, offline %+v", i+1, g, w)
		}
	}
	p.check("/rankings equals offline score.Rank(score.Score(db, spans))", err)
	err = nil
	if len(want) == 0 || !s.planted(want[0].Counter) {
		err = errors.New("top-1 is not the planted predicate")
		if len(want) > 0 {
			err = fmt.Errorf("top-1 is %s", s.prog.PredicateName(want[0].Counter))
		}
	}
	p.check("top-1 is the planted predicate", err)
}

// layerSample is per-layer work and busy time, summed over passes.
type layerSample struct {
	wall                       float64 // clocked seconds
	interpBusy, interpSteps    float64
	postS                      float64
	posts                      int
	retries, backpressure      uint64
	handler, read              float64
	decode, fold               float64
	foldBatchSum, foldBatchN   float64
	stageWaits, shed, rejected uint64
	snapshots                  uint64
	snapshotS                  float64
	merges, mergeBytes         uint64
	merge, flush               float64
	fedRejected, pushFailures  uint64
	elim, build, cv            float64
	gcCycles                   uint64
	gcPause, gcCPU             float64
}

func (l *layerSample) addClient(po *poster) {
	for _, ms := range po.lat {
		l.postS += ms / 1000
	}
	l.posts += len(po.lat)
	l.retries += po.reg.Counter("client_submit_retries_total").Value()
	l.backpressure += po.reg.Counter("client_backpressure_total").Value()
}

// addServer reads a collector's own registry after its pass.
func (l *layerSample) addServer(reg *telemetry.Registry) {
	l.decode += reg.Histogram("collect_decode_seconds", telemetry.DefBuckets).Sum()
	l.fold += reg.Histogram("collect_fold_seconds", telemetry.DefBuckets).Sum()
	fb := reg.Histogram("collect_stage_fold_batch", collect.BatchSizeBuckets)
	l.foldBatchSum += fb.Sum()
	l.foldBatchN += float64(fb.Count())
	l.stageWaits += reg.Counter("collect_stage_waits_total").Value()
	l.shed += reg.Counter("collect_reports_shed_total").Value()
	for _, reason := range []string{"method", "read", "decode", "fold", "too-large"} {
		l.rejected += reg.Counter(fmt.Sprintf("collect_reports_rejected_total{reason=%q}", reason)).Value()
	}
	l.snapshots += reg.Counter("monitor_snapshots_total").Value()
	l.snapshotS += reg.Histogram("monitor_snapshot_seconds", telemetry.DefBuckets).Sum()
}

func (l *layerSample) add(o layerSample) {
	l.wall += o.wall
	l.interpBusy += o.interpBusy
	l.interpSteps += o.interpSteps
	l.postS += o.postS
	l.posts += o.posts
	l.retries += o.retries
	l.backpressure += o.backpressure
	l.handler += o.handler
	l.read += o.read
	l.decode += o.decode
	l.fold += o.fold
	l.foldBatchSum += o.foldBatchSum
	l.foldBatchN += o.foldBatchN
	l.stageWaits += o.stageWaits
	l.shed += o.shed
	l.rejected += o.rejected
	l.snapshots += o.snapshots
	l.snapshotS += o.snapshotS
	l.merges += o.merges
	l.mergeBytes += o.mergeBytes
	l.merge += o.merge
	l.flush += o.flush
	l.fedRejected += o.fedRejected
	l.pushFailures += o.pushFailures
	l.elim += o.elim
	l.build += o.build
	l.cv += o.cv
	l.gcCycles += o.gcCycles
	l.gcPause += o.gcPause
	l.gcCPU += o.gcCPU
}

// Runtime and fleet figures the clock reads at its edges. The fleet's
// own histograms (telemetry.Default) already time every VM run.
var (
	fleetRunSeconds = telemetry.H("fleet_run_seconds", telemetry.DefBuckets)
	fleetRunSteps   = telemetry.H("fleet_run_steps", telemetry.StepBuckets)
)

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

type clockReading struct {
	t                time.Time
	vmSeconds, steps float64
	numGC            uint32
	pauseNs          uint64
	gcCPU            float64
}

func readClock() clockReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: gcCPU}}
	metrics.Read(s)
	return clockReading{
		t: time.Now(), vmSeconds: fleetRunSeconds.Sum(), steps: fleetRunSteps.Sum(),
		numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, gcCPU: s[0].Value.Float64(),
	}
}

// clock times the on-clock part of a pass and samples the heap while
// it runs.
type clock struct {
	start clockReading
	ht    *handlerTimes
	once  sync.Once
	stopc chan struct{}
	done  chan uint64
	peak  uint64
}

// heapSampleEvery is the peak-heap sampling period.
const heapSampleEvery = 5 * time.Millisecond

func (b *bench) startClock() *clock {
	c := &clock{ht: &b.ht, stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-c.stopc:
				c.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	c.start = readClock()
	b.clk = c
	return c
}

// halt stops the heap sampler, waits for it, and returns the peak.
func (c *clock) halt() uint64 {
	c.once.Do(func() {
		close(c.stopc)
		c.peak = <-c.done
	})
	return c.peak
}

// stop ends the clock, recording the pass's clocked time, peak heap,
// VM, GC and handler figures into p.
func (c *clock) stop(p *passResult) {
	end := readClock()
	p.heapPeak = c.halt()
	p.answer = end.t.Sub(c.start.t).Seconds()
	l := &p.layers
	l.wall = p.answer
	l.interpBusy = end.vmSeconds - c.start.vmSeconds
	l.interpSteps = end.steps - c.start.steps
	l.gcCycles = uint64(end.numGC - c.start.numGC)
	l.gcPause = float64(end.pauseNs-c.start.pauseNs) / 1e9
	l.gcCPU = end.gcCPU - c.start.gcCPU
	// Handler time up to the answer: the edges' final flush at Stop
	// comes after it.
	l.handler = c.ht.ingest.seconds()
	l.read = c.ht.read.seconds()
	l.merge = c.ht.merge.seconds()
	l.merges = uint64(c.ht.merge.n.Load())
	l.mergeBytes = uint64(c.ht.merge.bytes.Load())
}

// isolateStep is the report granularity of isolate_reports.
const isolateStep = 100

// isolations returns, for the stored reports in run-ID order and then
// in orderings-1 seeded shuffles, the fewest reports after which the
// planted predicate is top-1 of the Importance ranking at every later
// isolateStep-report step and at the end (0 when it is not top-1 at
// the end).
func isolations(db *report.DB, spans []score.SiteSpan, planted func(int) bool, orderings int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, db.Len())
	out := make([]int, 0, orderings)
	for o := 0; o < orderings; o++ {
		for i := range order {
			order[i] = i
		}
		if o > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		out = append(out, isolation(db, order, spans, planted))
	}
	return out
}

func isolation(db *report.DB, order []int, spans []score.SiteSpan, planted func(int) bool) int {
	acc := score.NewAccum(db.NumCounters, spans)
	since := 0
	for i, idx := range order {
		// Shapes were validated on ingest, so Fold cannot fail here.
		_ = acc.Fold(db.Reports[idx])
		n := i + 1
		if n%isolateStep != 0 && n != len(order) {
			continue
		}
		if top, ok := top1(acc.Predicates()); ok && planted(top) {
			if since == 0 {
				since = n
			}
		} else {
			since = 0
		}
	}
	return since
}

// top1 is score.Rank(preds)[0].Counter without the sort.
func top1(preds []score.Predicate) (int, bool) {
	best := -1
	for i, p := range preds {
		if p.Importance > 0 && (best < 0 || p.Importance > preds[best].Importance) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return preds[best].Counter, true
}

func sortByRunID(db *report.DB) {
	sort.SliceStable(db.Reports, func(i, j int) bool { return db.Reports[i].RunID < db.Reports[j].RunID })
}

// totals pools the passes of one run.
type totals struct {
	passes           int
	attempted, acked int // every pass, warm-up included
	// Per-pass figures: their medians are the run's, so a pass disturbed
	// by the machine moves one entry, not the result.
	answers   []float64
	rates     []float64 // acknowledged reports per clocked second
	analyzes  []float64
	heapPeaks []float64
	// Latencies of every timed pass, pooled: a pass sends ~10 reads (and a
	// bc pass ~70 POSTs), too few for a steady percentile of its own.
	postMs, readMs []float64
	isolate        []int
	verdicts       []verdict
	layers         layerSample
}

func (t *totals) addIsolate(p *passResult) { t.isolate = append(t.isolate, p.isolate...) }

// add pools a timed pass.
func (t *totals) add(p *passResult) {
	t.passes++
	t.attempted += p.attempted
	t.acked += p.acked
	t.answers = append(t.answers, p.answer)
	t.rates = append(t.rates, float64(p.acked)/p.answer)
	t.analyzes = append(t.analyzes, p.analyze)
	t.heapPeaks = append(t.heapPeaks, float64(p.heapPeak)/(1<<20))
	t.postMs = append(t.postMs, p.postMs...)
	t.readMs = append(t.readMs, p.readMs...)
	t.verdicts = append(t.verdicts, p.verdicts...)
	t.layers.add(p.layers)
}

func (t *totals) failedVerdicts() []string {
	var out []string
	for _, v := range t.verdicts {
		if v.err != nil {
			out = append(out, fmt.Sprintf("%s: %v", v.name, v.err))
		}
	}
	return out
}

// endToEnd is the untraced run's result: what a user of the pipeline
// sees.
func (t *totals) endToEnd(setup float64) map[string]metric {
	delivered := 0.0
	if t.attempted > 0 {
		delivered = float64(t.acked) / float64(t.attempted)
	}
	return map[string]metric{
		"setup_s":        {setup, "s"},
		"reports_per_s":  {median(t.rates), "1/s"},
		"answer_s":       {median(t.answers), "s"},
		"post_p50_ms":    {median(t.postMs), "ms"},
		"read_p50_ms":    {median(t.readMs), "ms"},
		"analyze_s":      {median(t.analyzes), "s"},
		"heap_peak_mb":   {median(t.heapPeaks), "MiB"},
		"delivered_frac": {delivered, "frac"},
	}
}

// layerMetrics is the traced run's result: each layer's work and busy
// seconds, and each layer's busy seconds as a share of the clocked
// CPU-seconds (wall time × GOMAXPROCS).
func (t *totals) layerMetrics() map[string]metric {
	l := t.layers
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var iso, first float64
	for _, v := range t.isolate {
		iso += float64(v)
	}
	if len(t.isolate) > 0 {
		iso /= float64(len(t.isolate))
		first = float64(t.isolate[0])
	}
	m := map[string]metric{
		"client.post_p95_ms":     {percentile(t.postMs, 0.95), "ms"},
		"server.read_p95_ms":     {percentile(t.readMs, 0.95), "ms"},
		"score.isolate_reports":  {iso, "reports"},
		"score.isolate_runid":    {first, "reports"},
		"interp.busy_s":          {l.interpBusy, "s"},
		"interp.steps":           {l.interpSteps, "count"},
		"interp.steps_per_s":     {ratio(l.interpSteps, l.interpBusy), "1/s"},
		"client.post_s":          {l.postS, "s"},
		"client.posts":           {float64(l.posts), "count"},
		"client.retries":         {float64(l.retries), "count"},
		"client.backpressure":    {float64(l.backpressure), "count"},
		"server.handler_s":       {l.handler, "s"},
		"client.wire_s":          {l.postS - l.handler, "s"},
		"server.decode_s":        {l.decode, "s"},
		"server.fold_s":          {l.fold, "s"},
		"server.fold_batch_mean": {ratio(l.foldBatchSum, l.foldBatchN), "reports"},
		"server.stage_waits":     {float64(l.stageWaits), "count"},
		"server.shed":            {float64(l.shed), "count"},
		"server.rejected":        {float64(l.rejected), "count"},
		"monitor.snapshots":      {float64(l.snapshots), "count"},
		"monitor.snapshot_s":     {l.snapshotS, "s"},
		"server.read_s":          {l.read, "s"},
		"fed.merges":             {float64(l.merges), "count"},
		"fed.merge_s":            {l.merge, "s"},
		"fed.merge_bytes":        {float64(l.mergeBytes), "bytes"},
		"fed.flush_s":            {l.flush, "s"},
		"fed.rejected":           {float64(l.fedRejected), "count"},
		"fed.push_failures":      {float64(l.pushFailures), "count"},
		"elim.s":                 {l.elim, "s"},
		"logreg.build_s":         {l.build, "s"},
		"logreg.cv_s":            {l.cv, "s"},
		"gc.cycles":              {float64(l.gcCycles), "count"},
		"gc.pause_s":             {l.gcPause, "s"},
		"gc.cpu_s":               {l.gcCPU, "s"},
		"phase.wall_s":           {l.wall, "s"},
	}
	// Self time per layer: nested calls are subtracted from the layer
	// that contains them (a POST contains the handler, the handler
	// contains the decode).
	cpu := l.wall * float64(runtime.GOMAXPROCS(0))
	shares := map[string]float64{
		"interp":     l.interpBusy,
		"client":     l.postS - l.handler,
		"server":     l.handler - l.decode,
		"report":     l.decode + l.fold,
		"monitor":    l.snapshotS + l.read,
		"federation": l.merge,
		"analysis":   l.elim + l.build + l.cv,
		"gc":         l.gcCPU,
	}
	rest := 1.0
	for name, busy := range shares {
		s := ratio(busy, cpu)
		m["share."+name] = metric{s, "frac"}
		rest -= s
	}
	m["share.unaccounted"] = metric{rest, "frac"}
	return m
}
