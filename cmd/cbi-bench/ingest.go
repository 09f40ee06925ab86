package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/collect"
	"cbi/internal/collect/collecttest"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
)

// ingestDoc is the JSON document the ingest subcommand writes to
// -bench-out: staged ring-buffer ingest vs the synchronous sharded-mutex
// oracle across a shards x submitters matrix, plus a deliberate-overload
// scenario exercising shed/back-pressure. CI gates on IdentityAll, the
// per-cell speedups, and every Overload flag; the 1.3x speedup gate at
// >= 8 submitters applies only on machines with enough cores for the
// sync path's lock convoys to exist (see CPUs below).
type ingestDoc struct {
	Reports   int `json:"reports_per_cell"`
	BatchSize int `json:"batch_size"`
	Rounds    int `json:"rounds"`
	// CPUs is runtime.NumCPU() where the measurement ran. On a
	// single-core host both pipelines are bound by total CPU work and
	// the speedup reduces to the merged-fold savings (~1.05-1.1x); the
	// staged architecture's contention win (producers never block on a
	// mutex a preempted holder owns) needs real parallelism to show.
	CPUs int `json:"cpus"`
	// Gomaxprocs is pinned to at least 8 so that even on narrow hosts
	// producers and folders interleave preemptively (OS threads) rather
	// than cooperatively (single run queue), which is how a deployed
	// collector behaves under concurrent connections.
	Gomaxprocs int `json:"gomaxprocs"`
	// Cells is the throughput matrix. Every cell also ran one untimed
	// identity round in StoreAll mode asserting aggregate + accumulator
	// + DB bit-identity between the two pipelines, and every timed
	// round re-checked aggregate + ranking identity.
	Cells []ingestCell `json:"cells"`
	// BestSpeedupAt8 is the best per-cell median speedup among cells
	// with >= 8 concurrent submitters — the acceptance headline on
	// multi-core hosts.
	BestSpeedupAt8 float64        `json:"best_speedup_at_8_submitters"`
	IdentityAll    bool           `json:"identity_all"`
	Overload       ingestOverload `json:"overload"`
}

type ingestCell struct {
	Shards     int `json:"shards"`
	Submitters int `json:"submitters"`
	// Speedup is the median over paired rounds of sync-time/staged-time
	// (> 1 means the staged pipeline ingests faster end to end,
	// including the final drain).
	Speedup     float64 `json:"speedup"`
	StagedRPS   float64 `json:"staged_reports_per_sec"`
	SyncRPS     float64 `json:"sync_reports_per_sec"`
	StagedP99Us float64 `json:"staged_p99_handler_us"`
	SyncP99Us   float64 `json:"sync_p99_handler_us"`
	Identical   bool    `json:"identical"`
	// Shed must be 0 in throughput cells: their rings are sized to hold
	// the whole workload, so back-pressure never engages.
	Shed uint64 `json:"shed"`
}

type ingestOverload struct {
	Shards       int `json:"shards"`
	RingCapacity int `json:"ring_capacity"`
	Submitters   int `json:"submitters"`
	Batches      int `json:"batches"`
	Reports      int `json:"reports"`
	// FirstPassAccepted/FirstPassShed partition the burst: under
	// sustained overload of a one-folder collector both must be nonzero
	// (service degrades to fast rejection, it does not collapse).
	FirstPassAccepted uint64 `json:"first_pass_accepted"`
	FirstPassShed     uint64 `json:"first_pass_shed"`
	// RetryAfterOnEvery503 asserts the back-pressure contract: every
	// shed response carried a Retry-After header.
	RetryAfterOnEvery503 bool `json:"retry_after_on_every_503"`
	// RetriedToCompletion: every shed batch was eventually accepted on
	// retry once pressure dropped, and LostAccepted counts reports that
	// got a 202 but were missing from the final state (must be 0).
	RetriedToCompletion bool `json:"retried_to_completion"`
	LostAccepted        int  `json:"lost_accepted"`
	// Identical: final aggregate/accumulator/DB equal a serial fold of
	// all reports — shed + retry left no duplicates and no holes.
	Identical bool `json:"identical"`
	// ShedAnomalyFired/Recovered track the quality engine: the shed
	// storm must surface as an anomaly and clear after the burst.
	ShedAnomalyFired     bool `json:"shed_anomaly_fired"`
	ShedAnomalyRecovered bool `json:"shed_anomaly_recovered"`
}

const (
	// The throughput workload leans dense (half the counter space
	// nonzero) so the fold — the part the sharded-mutex baseline
	// serializes and the staged pipeline batches — carries real weight
	// relative to wire decoding.
	ingestCounters  = 512
	ingestNonzeros  = 256
	ingestBatchSize = 32
	ingestBatches   = 256 // reports per measurement = batches * batch size
	ingestRounds    = 5   // measured paired rounds (plus one warmup)
)

// ingestWorkload builds n synthetic reports and their pre-encoded
// /reports batch bodies, so every measurement replays identical wire
// traffic and the servers do all decoding themselves.
func ingestWorkload(rng *rand.Rand, n, counters, nonzeros, batch int) ([]*report.Report, [][]byte) {
	reps := make([]*report.Report, n)
	for i := range reps {
		c := make([]uint64, counters)
		for j := 0; j < nonzeros; j++ {
			c[rng.Intn(counters)] = uint64(rng.Intn(200) + 1)
		}
		reps[i] = &report.Report{
			RunID:    uint64(i + 1),
			Program:  "ingest-bench",
			Crashed:  rng.Intn(10) < 3,
			Counters: c,
		}
	}
	var bodies [][]byte
	for at := 0; at < n; at += batch {
		end := at + batch
		if end > n {
			end = n
		}
		bodies = append(bodies, report.EncodeBatch(reps[at:end]))
	}
	return reps, bodies
}

// ingestMeasure is one timed replay of the workload against one server
// configuration, plus the snapshots the identity checks compare.
type ingestMeasure struct {
	seconds   float64
	latencies []time.Duration
	shed      uint64
	agg       *report.Aggregate
	acc       *score.Accum
	db        *report.DB // StoreAll identity rounds only
}

// runIngestOnce replays bodies against a fresh server through the real
// HTTP handler stack (in process, no TCP — the comparison targets the
// ingest pipeline, not the kernel's socket path); the sync rounds go
// through collecttest.SyncHandler, which folds inside the request
// through Submit. Elapsed time runs
// until the final Aggregate snapshot returns, so the staged pipeline
// pays for draining its rings: both modes are timed to full ingest
// completion, not first acknowledgment.
func runIngestOnce(staged bool, mode collect.Mode, shards, submitters int, bodies [][]byte) (ingestMeasure, error) {
	var m ingestMeasure
	runtime.GC() // start every round from the same heap state
	srv := collect.NewServer("ingest-bench", ingestCounters, mode)
	srv.ExposeTelemetry = false
	srv.Shards = shards
	srv.Monitor = monitor.New(monitor.Config{TopK: 3, EveryReports: 0})
	// Ring sized for the whole workload and a generous deadline:
	// throughput cells measure the pipeline, not back-pressure, so any
	// shed here is a bug (the gate checks Shed == 0).
	srv.StageCapacity = ingestBatches * ingestBatchSize
	srv.StageWait = time.Second
	h := srv.Handler()
	if !staged {
		h = collecttest.SyncHandler(srv)
	}
	defer srv.Stop()

	lat := make([][]time.Duration, submitters)
	var failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, len(bodies)/submitters+1)
			for i := w; i < len(bodies); i += submitters {
				req := httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(bodies[i]))
				rec := httptest.NewRecorder()
				s0 := time.Now()
				h.ServeHTTP(rec, req)
				mine = append(mine, time.Since(s0))
				if rec.Code != http.StatusAccepted {
					failed.Add(1)
				}
			}
			lat[w] = mine
		}(w)
	}
	wg.Wait()
	m.agg = srv.Aggregate() // drain barrier: staged folds all complete here
	m.seconds = time.Since(t0).Seconds()
	if n := failed.Load(); n != 0 {
		return m, fmt.Errorf("ingest bench: %d batches not accepted (staged=%v shards=%d submitters=%d)",
			n, staged, shards, submitters)
	}
	m.acc = srv.ScoreState()
	if mode == collect.StoreAll {
		m.db = srv.DB()
	}
	m.shed = srv.Registry().Counter("collect_reports_shed_total").Value()
	for _, l := range lat {
		m.latencies = append(m.latencies, l...)
	}
	return m, nil
}

func p99Micros(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[len(lat)*99/100]) / float64(time.Microsecond)
}

func medianFloat(xs []float64) float64 {
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// sameIngestState compares the snapshots the two pipelines must agree
// on bit for bit. The DBs are compared only when both rounds retained
// reports (StoreAll identity rounds). ScoreState merges shards into a
// fresh accumulator, so DeepEqual sees only the statistic fields.
func sameIngestState(a, b ingestMeasure) bool {
	if !reflect.DeepEqual(a.agg, b.agg) || !reflect.DeepEqual(a.acc, b.acc) {
		return false
	}
	if a.db != nil || b.db != nil {
		return reflect.DeepEqual(a.db, b.db)
	}
	return true
}

// ingestBench measures the staged ring-buffer ingest pipeline against
// the synchronous sharded-mutex oracle and writes BENCH_ingest.json.
func ingestBench() error {
	header("Staged ingest: ring-buffer pipeline vs sharded-mutex oracle")
	doc := ingestDoc{
		Reports:     ingestBatches * ingestBatchSize,
		BatchSize:   ingestBatchSize,
		Rounds:      ingestRounds,
		CPUs:        runtime.NumCPU(),
		IdentityAll: true,
	}
	// Pin at least 8 scheduler threads: a deployed collector serves
	// many concurrent connections on OS threads, and on a narrow
	// benchmark host the default (= NumCPU) would serialize producers
	// and folders cooperatively, hiding both lock convoys and
	// back-pressure. Restored on exit.
	prev := runtime.GOMAXPROCS(0)
	if prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	doc.Gomaxprocs = runtime.GOMAXPROCS(0)

	rng := rand.New(rand.NewSource(*seed))
	_, bodies := ingestWorkload(rng, doc.Reports, ingestCounters, ingestNonzeros, ingestBatchSize)

	cells := []struct{ shards, submitters int }{
		{1, 1}, {1, 4}, {1, 8}, {1, 16}, {8, 8}, {8, 16},
	}
	fmt.Printf("%d reports/cell in %d-report batches, %d paired rounds (median ratio), %d CPUs:\n\n",
		doc.Reports, ingestBatchSize, ingestRounds, doc.CPUs)
	fmt.Printf("%7s %11s %12s %12s %12s %12s %10s %5s\n",
		"shards", "submitters", "staged rep/s", "sync rep/s", "staged p99", "sync p99", "speedup", "ident")
	for _, c := range cells {
		cell := ingestCell{Shards: c.shards, Submitters: c.submitters, Identical: true}

		// One untimed identity round in StoreAll mode: aggregate,
		// accumulator, and per-report DB must match bit for bit at this
		// exact concurrency level.
		idStaged, err := runIngestOnce(true, collect.StoreAll, c.shards, c.submitters, bodies)
		if err != nil {
			return err
		}
		idSync, err := runIngestOnce(false, collect.StoreAll, c.shards, c.submitters, bodies)
		if err != nil {
			return err
		}
		if !sameIngestState(idStaged, idSync) {
			cell.Identical = false
		}
		cell.Shed += idStaged.shed

		// Timed paired rounds in AggregateOnly mode (no retained
		// reports, so GC pressure stays flat across rounds); round 0 is
		// a discarded warmup, and the order within each pair alternates
		// so scheduler drift cancels out.
		var ratios []float64
		var stagedLat, syncLat []time.Duration
		var stagedBest, syncBest float64
		for round := 0; round <= ingestRounds; round++ {
			var staged, syn ingestMeasure
			if round%2 == 0 {
				if staged, err = runIngestOnce(true, collect.AggregateOnly, c.shards, c.submitters, bodies); err == nil {
					syn, err = runIngestOnce(false, collect.AggregateOnly, c.shards, c.submitters, bodies)
				}
			} else {
				if syn, err = runIngestOnce(false, collect.AggregateOnly, c.shards, c.submitters, bodies); err == nil {
					staged, err = runIngestOnce(true, collect.AggregateOnly, c.shards, c.submitters, bodies)
				}
			}
			if err != nil {
				return err
			}
			if round == 0 {
				continue
			}
			if !sameIngestState(staged, syn) {
				cell.Identical = false
			}
			cell.Shed += staged.shed
			ratios = append(ratios, syn.seconds/staged.seconds)
			stagedLat = append(stagedLat, staged.latencies...)
			syncLat = append(syncLat, syn.latencies...)
			if stagedBest == 0 || staged.seconds < stagedBest {
				stagedBest = staged.seconds
			}
			if syncBest == 0 || syn.seconds < syncBest {
				syncBest = syn.seconds
			}
		}
		cell.Speedup = medianFloat(ratios)
		cell.StagedRPS = float64(doc.Reports) / stagedBest
		cell.SyncRPS = float64(doc.Reports) / syncBest
		cell.StagedP99Us = p99Micros(stagedLat)
		cell.SyncP99Us = p99Micros(syncLat)
		if cell.Submitters >= 8 && cell.Speedup > doc.BestSpeedupAt8 {
			doc.BestSpeedupAt8 = cell.Speedup
		}
		if !cell.Identical || cell.Shed != 0 {
			doc.IdentityAll = false
		}
		doc.Cells = append(doc.Cells, cell)
		fmt.Printf("%7d %11d %12.0f %12.0f %10.1fus %10.1fus %9.2fx %5v\n",
			cell.Shards, cell.Submitters, cell.StagedRPS, cell.SyncRPS,
			cell.StagedP99Us, cell.SyncP99Us, cell.Speedup, cell.Identical)
	}

	ov, err := ingestOverloadScenario(rng)
	if err != nil {
		return err
	}
	doc.Overload = ov
	fmt.Printf("\noverload (shards=%d, ring=%d, %d submitters, %d dense reports):\n",
		ov.Shards, ov.RingCapacity, ov.Submitters, ov.Reports)
	fmt.Printf("  first pass: %d accepted, %d shed; Retry-After on every 503: %v\n",
		ov.FirstPassAccepted, ov.FirstPassShed, ov.RetryAfterOnEvery503)
	fmt.Printf("  retried to completion: %v; lost accepted: %d; identical to serial fold: %v\n",
		ov.RetriedToCompletion, ov.LostAccepted, ov.Identical)
	fmt.Printf("  shed anomaly fired: %v, recovered: %v\n", ov.ShedAnomalyFired, ov.ShedAnomalyRecovered)

	return writeBenchDoc("BENCH_ingest.json", &doc)
}

// shedAnomalyActive reports whether the quality engine currently flags
// the shed storm: a rate spike on the shed tracker or an outright
// reject surge.
func shedAnomalyActive(e *quality.Engine) bool {
	for _, a := range e.ActiveAnomalies() {
		if a.Target == "reject:shed" || a.Kind == "reject-surge" {
			return true
		}
	}
	return false
}

// ingestOverloadScenario drives a deliberately tiny collector — one
// shard, one folder, a small ring, immediate shed — well past its fold
// capacity: dense reports make the single folder the bottleneck while
// eight submitters keep the ring full. The collector must degrade to
// fast 503 + Retry-After rejections (bounded memory, no blocking), the
// quality engine must flag the shed storm and recover, and retrying the
// shed batches once pressure drops must reach exactly the serial-fold
// state: nothing lost, nothing duplicated.
func ingestOverloadScenario(rng *rand.Rand) (ingestOverload, error) {
	const (
		counters   = 1024 // dense: every counter nonzero, so folds dominate
		batch      = 16
		perSub     = 80
		submitters = 8
		ring       = 128
	)
	ov := ingestOverload{
		Shards: 1, RingCapacity: ring, Submitters: submitters,
		Batches: submitters * perSub, Reports: submitters * perSub * batch,
		RetryAfterOnEvery503: true,
	}
	reps := make([]*report.Report, ov.Reports)
	for i := range reps {
		c := make([]uint64, counters)
		for j := range c {
			c[j] = uint64(rng.Intn(50) + 1)
		}
		reps[i] = &report.Report{
			RunID: uint64(i + 1), Program: "ingest-bench",
			Crashed: rng.Intn(10) < 3, Counters: c,
		}
	}
	bodies := make([][]byte, ov.Batches)
	for i := range bodies {
		bodies[i] = report.EncodeBatch(reps[i*batch : (i+1)*batch])
	}

	srv := collect.NewServer("ingest-bench", counters, collect.StoreAll)
	srv.ExposeTelemetry = false
	srv.Shards = 1
	srv.StageCapacity = ring
	srv.StageWait = -1 // shed as soon as the ring is full: pure load-shedding mode
	srv.Monitor = monitor.New(monitor.Config{TopK: 3, EveryReports: 0})
	srv.Quality = quality.New(quality.Config{Interval: -1}) // manual ticks
	h := srv.Handler()
	defer srv.Stop()
	srv.Quality.Tick() // baseline tick so the rate-spike rule is armed

	post := func(body []byte) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Retry-After")
	}

	var acceptedN, shedN atomic.Uint64
	var missingRetryAfter atomic.Uint64
	shedBatches := make([][]int, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += submitters {
				code, retryAfter := post(bodies[i])
				switch code {
				case http.StatusAccepted:
					acceptedN.Add(batch)
				case http.StatusServiceUnavailable:
					shedN.Add(batch)
					if retryAfter == "" {
						missingRetryAfter.Add(1)
					}
					shedBatches[w] = append(shedBatches[w], i)
				}
			}
		}(w)
	}
	wg.Wait()
	ov.FirstPassAccepted = acceptedN.Load()
	ov.FirstPassShed = shedN.Load()
	ov.RetryAfterOnEvery503 = missingRetryAfter.Load() == 0

	// The shed window must surface as an anomaly. Two tick chances: the
	// second covers a burst so short that the first window is marginal.
	for i := 0; i < 2 && !ov.ShedAnomalyFired; i++ {
		srv.Quality.Tick()
		ov.ShedAnomalyFired = shedAnomalyActive(srv.Quality)
	}

	// Pressure is off (one sequential retrier): every shed batch must
	// land within a bounded number of attempts.
	ov.RetriedToCompletion = true
	for _, mine := range shedBatches {
		for _, i := range mine {
			landed := false
			for attempt := 0; attempt < 10000; attempt++ {
				if code, _ := post(bodies[i]); code == http.StatusAccepted {
					landed = true
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
			if !landed {
				ov.RetriedToCompletion = false
			}
		}
	}

	// Quiet ticks clear the anomaly (RecoverTicks defaults to 2).
	for i := 0; i < 10; i++ {
		time.Sleep(2 * time.Millisecond)
		srv.Quality.Tick()
		if !shedAnomalyActive(srv.Quality) {
			ov.ShedAnomalyRecovered = true
			break
		}
	}

	// With every batch eventually accepted, the final state must be the
	// serial fold of all reports: shed/retry introduced no holes and no
	// duplicates, and no 202 was lost.
	oracleAgg := report.NewAggregate("ingest-bench", counters)
	oracleAcc := score.NewAccum(counters, nil)
	oracleDB := report.NewDB("ingest-bench", counters)
	for _, r := range reps {
		if err := oracleAgg.Fold(r); err != nil {
			return ov, err
		}
		if err := oracleAcc.Fold(r); err != nil {
			return ov, err
		}
		if err := oracleDB.Add(r); err != nil {
			return ov, err
		}
	}
	agg := srv.Aggregate()
	acc := srv.ScoreState()
	db := srv.DB()
	ov.LostAccepted = len(reps) - agg.Runs
	sameDB := db.Len() == oracleDB.Len()
	if sameDB {
		for i, got := range db.Reports {
			want := oracleDB.Reports[i]
			if got.RunID != want.RunID || got.Crashed != want.Crashed ||
				!reflect.DeepEqual(got.Counters, want.Counters) {
				sameDB = false
				break
			}
		}
	}
	ov.Identical = reflect.DeepEqual(agg, oracleAgg) &&
		reflect.DeepEqual(score.Rank(acc.Predicates()), score.Rank(oracleAcc.Predicates())) &&
		acc.Runs == oracleAcc.Runs && sameDB
	return ov, nil
}
