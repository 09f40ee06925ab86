package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/instrument"
	"cbi/internal/report"
	"cbi/internal/workloads"
)

// analysisBenchDoc is the JSON document the analyze subcommand writes to
// -bench-out: the sparse CSR engine raced against its dense differential
// oracle on a bc-style workload, plus parallel-vs-serial scaling for
// cross-validation and progressive elimination. CI gates on
// overall.speedup and on every identity flag.
type analysisBenchDoc struct {
	Env          benchEnv `json:"env"`
	Workload     string   `json:"workload"`
	Runs         int      `json:"runs"`
	RawFeatures  int      `json:"raw_features"`
	UsedFeatures int      `json:"used_features"`
	TrainRows    int      `json:"train_rows"`
	TrainNNZ     int      `json:"train_nnz"`

	Build struct {
		DenseSeconds  float64 `json:"dense_seconds"`
		SparseSeconds float64 `json:"sparse_seconds"`
		Speedup       float64 `json:"speedup"`
		// Identical: same FeatureIdx, bitwise-equal Scale factors, and every
		// CSR row expands to the dense row.
		Identical bool `json:"identical"`
	} `json:"build"`

	Train struct {
		Lambda           float64 `json:"lambda"`
		Epochs           int     `json:"epochs"`
		DenseSeconds     float64 `json:"dense_seconds"`
		SparseSeconds    float64 `json:"sparse_seconds"`
		DenseRowsPerSec  float64 `json:"dense_rows_per_sec"`
		SparseRowsPerSec float64 `json:"sparse_rows_per_sec"`
		DenseAllocs      float64 `json:"dense_allocs"`
		SparseAllocs     float64 `json:"sparse_allocs"`
		Speedup          float64 `json:"speedup"`
		// Identical: Beta0 and every coefficient bitwise equal (by
		// Float64bits, so -0 and +0 differ).
		Identical bool `json:"identical"`
	} `json:"train"`

	CV struct {
		Lambdas               []float64 `json:"lambdas"`
		Workers               int       `json:"workers"`
		DenseSerialSeconds    float64   `json:"dense_serial_seconds"`
		SparseParallelSeconds float64   `json:"sparse_parallel_seconds"`
		DenseRowsPerSec       float64   `json:"dense_rows_per_sec"`
		SparseRowsPerSec      float64   `json:"sparse_rows_per_sec"`
		Speedup               float64   `json:"speedup"`
		SameLambda            bool      `json:"same_lambda"`
		SameModel             bool      `json:"same_model"`
		SameTop10             bool      `json:"same_top10"`
	} `json:"cv"`

	Progressive struct {
		Sizes           []int   `json:"sizes"`
		Trials          int     `json:"trials"`
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
		Identical       bool    `json:"identical"`
	} `json:"progressive"`

	Overall struct {
		// Speedup is the headline number: sparse+parallel cross-validation
		// rows/sec over dense-serial rows/sec (the §3.3 hot path).
		Speedup   float64 `json:"speedup"`
		Identical bool    `json:"identical"`
	} `json:"overall"`
}

// analyze races the sparse analysis engine against the dense oracle on a
// bc fleet: dataset build, single-lambda training (with allocation
// counts), parallel cross-validation, and parallel progressive
// elimination — asserting bit-identical models throughout.
func analyze() error {
	header(fmt.Sprintf("Analysis engine: sparse CSR vs dense oracle (bc, %d runs @ %s)", *bcRuns, frac(*bcDensity)))
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	built, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, *bcDensity > 0)
	if err != nil {
		return err
	}
	db, err := workloads.BCFleet(built.Program, workloads.FleetConfig{
		Runs: *bcRuns, Density: *bcDensity, SeedBase: *seed, Workers: w,
	})
	if err != nil {
		return err
	}
	agg := report.NewAggregate("bc", built.Program.NumCounters)
	if err := agg.FromDB(db); err != nil {
		return err
	}
	keep := elim.UniversalFalsehood(agg)
	trainR, cvR, _ := logreg.Split(db.Reports, 0.62, 0.07, *seed+1)

	var doc analysisBenchDoc
	doc.Env = currentEnv()
	doc.Workload = "bc"
	doc.Runs = db.Len()
	doc.RawFeatures = built.Program.NumCounters
	doc.UsedFeatures = elim.Count(keep)

	// --- dataset build ---------------------------------------------------
	t0 := time.Now()
	dtrain := logreg.BuildDataset(trainR, keep)
	doc.Build.DenseSeconds = time.Since(t0).Seconds()
	t0 = time.Now()
	strain := logreg.BuildSparseDataset(trainR, keep)
	doc.Build.SparseSeconds = time.Since(t0).Seconds()
	doc.Build.Speedup = doc.Build.DenseSeconds / doc.Build.SparseSeconds
	doc.Build.Identical = sameDataset(dtrain, strain)
	doc.TrainRows = strain.Rows()
	doc.TrainNNZ = strain.NNZ()
	fmt.Printf("build (%d rows, %d features, %d nonzeros = %.1f%% dense):\n",
		doc.TrainRows, doc.UsedFeatures, doc.TrainNNZ,
		100*float64(doc.TrainNNZ)/float64(doc.TrainRows*doc.UsedFeatures))
	fmt.Printf("  dense %.3fs, sparse %.3fs — %.2fx, identical=%v\n",
		doc.Build.DenseSeconds, doc.Build.SparseSeconds, doc.Build.Speedup, doc.Build.Identical)

	dcv := dtrain.Project(cvR)
	scv := strain.Project(cvR)

	// --- single-lambda training ------------------------------------------
	const epochs = 30
	tc := logreg.TrainConfig{Lambda: 0.3, StepSize: 1e-2, Epochs: epochs, Seed: *seed + 2}
	rows := float64(doc.TrainRows) * epochs
	var dm, sm *logreg.Model
	doc.Train.DenseSeconds, doc.Train.DenseAllocs = measureAllocs(func() { dm = logreg.Train(dtrain, tc) })
	doc.Train.SparseSeconds, doc.Train.SparseAllocs = measureAllocs(func() { sm = logreg.TrainSparse(strain, tc) })
	doc.Train.Lambda = tc.Lambda
	doc.Train.Epochs = epochs
	doc.Train.DenseRowsPerSec = rows / doc.Train.DenseSeconds
	doc.Train.SparseRowsPerSec = rows / doc.Train.SparseSeconds
	doc.Train.Speedup = doc.Train.DenseSeconds / doc.Train.SparseSeconds
	doc.Train.Identical = sm.SameBits(dm)
	fmt.Printf("train (lambda %g, %d epochs):\n", tc.Lambda, epochs)
	fmt.Printf("  dense  %.3fs (%.0f rows/s, %.0f allocs)\n", doc.Train.DenseSeconds, doc.Train.DenseRowsPerSec, doc.Train.DenseAllocs)
	fmt.Printf("  sparse %.3fs (%.0f rows/s, %.0f allocs) — %.2fx, identical=%v\n",
		doc.Train.SparseSeconds, doc.Train.SparseRowsPerSec, doc.Train.SparseAllocs, doc.Train.Speedup, doc.Train.Identical)

	// --- cross-validation: dense serial vs sparse parallel ----------------
	lambdas := []float64{0.05, 0.1, 0.3, 1.0}
	cvRows := rows * float64(len(lambdas))
	t0 = time.Now()
	dl, dcvModel := logreg.CrossValidate(dtrain, dcv, lambdas, logreg.TrainConfig{StepSize: 1e-2, Epochs: epochs, Seed: *seed + 2, Workers: 1})
	doc.CV.DenseSerialSeconds = time.Since(t0).Seconds()
	t0 = time.Now()
	sl, scvModel := logreg.CrossValidateSparse(strain, scv, lambdas, logreg.TrainConfig{StepSize: 1e-2, Epochs: epochs, Seed: *seed + 2, Workers: w})
	doc.CV.SparseParallelSeconds = time.Since(t0).Seconds()
	doc.CV.Lambdas = lambdas
	doc.CV.Workers = w
	doc.CV.DenseRowsPerSec = cvRows / doc.CV.DenseSerialSeconds
	doc.CV.SparseRowsPerSec = cvRows / doc.CV.SparseParallelSeconds
	doc.CV.Speedup = doc.CV.DenseSerialSeconds / doc.CV.SparseParallelSeconds
	doc.CV.SameLambda = dl == sl
	doc.CV.SameModel = scvModel.SameBits(dcvModel)
	doc.CV.SameTop10 = reflect.DeepEqual(dcvModel.TopFeatures(10), scvModel.TopFeatures(10))
	fmt.Printf("cross-validation (%d lambdas):\n", len(lambdas))
	fmt.Printf("  dense serial    %.3fs (%.0f rows/s)\n", doc.CV.DenseSerialSeconds, doc.CV.DenseRowsPerSec)
	fmt.Printf("  sparse %2d-way   %.3fs (%.0f rows/s) — %.2fx, lambda=%v model=%v top10=%v\n",
		w, doc.CV.SparseParallelSeconds, doc.CV.SparseRowsPerSec, doc.CV.Speedup,
		doc.CV.SameLambda, doc.CV.SameModel, doc.CV.SameTop10)

	// --- progressive elimination: serial vs parallel ----------------------
	successes := db.Successes()
	initial := elim.UniversalFalsehood(agg)
	sizes := []int{50, 200, len(successes)}
	const trials = 60
	t0 = time.Now()
	serialPts := elim.ProgressiveWorkers(successes, initial, sizes, trials, *seed+3, 1)
	doc.Progressive.SerialSeconds = time.Since(t0).Seconds()
	t0 = time.Now()
	parallelPts := elim.ProgressiveWorkers(successes, initial, sizes, trials, *seed+3, w)
	doc.Progressive.ParallelSeconds = time.Since(t0).Seconds()
	doc.Progressive.Sizes = sizes
	doc.Progressive.Trials = trials
	doc.Progressive.Workers = w
	doc.Progressive.Speedup = doc.Progressive.SerialSeconds / doc.Progressive.ParallelSeconds
	doc.Progressive.Identical = reflect.DeepEqual(serialPts, parallelPts)
	fmt.Printf("progressive elimination (%d sizes x %d trials):\n", len(sizes), trials)
	fmt.Printf("  serial %.3fs, %d workers %.3fs — %.2fx, identical=%v\n",
		doc.Progressive.SerialSeconds, w, doc.Progressive.ParallelSeconds,
		doc.Progressive.Speedup, doc.Progressive.Identical)

	doc.Overall.Speedup = doc.CV.Speedup
	doc.Overall.Identical = doc.Build.Identical && doc.Train.Identical &&
		doc.CV.SameLambda && doc.CV.SameModel && doc.CV.SameTop10 && doc.Progressive.Identical
	fmt.Printf("overall: %.2fx sparse+parallel over dense-serial, identical=%v\n",
		doc.Overall.Speedup, doc.Overall.Identical)
	if !doc.Overall.Identical {
		return fmt.Errorf("analyze: sparse engine diverged from the dense oracle")
	}

	return writeBenchDoc("BENCH_analysis.json", &doc)
}

// measureAllocs times f and counts heap allocations across it.
func measureAllocs(f func()) (seconds, allocs float64) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	f()
	seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	return seconds, float64(ms1.Mallocs - ms0.Mallocs)
}

// sameDataset checks the CSR dataset against the dense one: feature map,
// bitwise scale factors, labels, and every expanded row.
func sameDataset(d *logreg.Dataset, s *logreg.SparseDataset) bool {
	if !reflect.DeepEqual(d.FeatureIdx, s.FeatureIdx) ||
		!reflect.DeepEqual(d.Scale, s.Scale) ||
		!reflect.DeepEqual(d.Y, s.Y) || len(d.X) != s.Rows() {
		return false
	}
	row := make([]float64, len(s.FeatureIdx))
	for i := range d.X {
		for j := range row {
			row[j] = 0
		}
		for e := s.RowStart[i]; e < s.RowStart[i+1]; e++ {
			row[s.Cols[e]] = s.Vals[e]
		}
		if !reflect.DeepEqual(row, d.X[i]) {
			return false
		}
	}
	return true
}
