package logreg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cbi/internal/report"
)

// denseFromSparse expands a CSR dataset row back to a dense vector.
func denseFromSparse(ds *SparseDataset, i int) []float64 {
	row := make([]float64, len(ds.FeatureIdx))
	for e := ds.RowStart[i]; e < ds.RowStart[i+1]; e++ {
		row[ds.Cols[e]] = ds.Vals[e]
	}
	return row
}

func TestPermuteMatchesRandPerm(t *testing.T) {
	a := rand.New(rand.NewSource(99))
	b := rand.New(rand.NewSource(99))
	buf := make([]int, 17)
	// Repeated rounds on the same buffer must track rand.Perm exactly:
	// the result is independent of buf's prior contents.
	for round := 0; round < 5; round++ {
		want := a.Perm(17)
		permute(b, buf)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("round %d: %v != %v", round, buf, want)
		}
	}
}

func TestSplitSmallSets(t *testing.T) {
	reports := synthDB(9, 4, 0, 1, 1)
	// 9 runs at 62%/7%: truncation gives nTrain=5, nCV=0 — a silently
	// empty cross-validation set. One run must be moved from test to cv.
	train, cv, test := Split(reports, 0.62, 0.07, 3)
	if len(cv) != 1 {
		t.Errorf("cv size %d, want 1", len(cv))
	}
	if len(train)+len(cv)+len(test) != 9 {
		t.Error("coverage")
	}
	// Overfull fractions must not over-allocate: cvFrac is reduced to the
	// remaining mass (here 0.2), so train gets its share and cv+test split
	// the rest.
	train, cv, test = Split(reports, 0.8, 0.8, 3)
	if len(train) != 7 || len(cv) != 1 || len(test) != 1 {
		t.Errorf("overfull: %d/%d/%d", len(train), len(cv), len(test))
	}
	// Out-of-range fractions clamp instead of panicking or going negative.
	train, cv, test = Split(reports, -0.5, 2.0, 3)
	if len(train) != 0 || len(cv) != 9 || len(test) != 0 {
		t.Errorf("clamped: %d/%d/%d", len(train), len(cv), len(test))
	}
	// A single run cannot populate cv (no second non-train run to take).
	_, cv, _ = Split(reports[:1], 0.0, 0.07, 3)
	if len(cv) != 0 {
		t.Errorf("1-run cv size %d", len(cv))
	}
}

func TestBuildSparseDatasetMatchesDense(t *testing.T) {
	reports := synthDB(300, 40, 7, 12, 11)
	keep := make([]bool, 40)
	for j := range keep {
		keep[j] = j%3 != 1 // drop a third of the features
	}
	for _, k := range [][]bool{nil, keep} {
		dense := BuildDataset(reports, k)
		sparse := BuildSparseDataset(reports, k)
		if !reflect.DeepEqual(sparse.FeatureIdx, dense.FeatureIdx) {
			t.Fatalf("feature index: %v vs %v", sparse.FeatureIdx, dense.FeatureIdx)
		}
		if !reflect.DeepEqual(sparse.Scale, dense.Scale) {
			t.Fatal("scale factors differ")
		}
		if !reflect.DeepEqual(sparse.Y, dense.Y) {
			t.Fatal("labels differ")
		}
		for i := range dense.X {
			if !reflect.DeepEqual(denseFromSparse(sparse, i), dense.X[i]) {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

// sparseSynthDB makes n reports with perRow random nonzero counters each
// among `counters`; crashes also set the last counter, and report n/2 has
// every counter nonzero.
func sparseSynthDB(n, counters, perRow int, seed int64) []*report.Report {
	rng := rand.New(rand.NewSource(seed))
	var out []*report.Report
	for i := 0; i < n; i++ {
		crash := rng.Intn(4) == 0
		c := make([]uint64, counters)
		for k := 0; k < perRow; k++ {
			c[rng.Intn(counters)] = uint64(1 + rng.Intn(4))
		}
		if crash {
			c[counters-1] = uint64(3 + rng.Intn(3))
		}
		if i == n/2 {
			for j := range c {
				c[j] = uint64(1 + rng.Intn(3))
			}
		}
		out = append(out, &report.Report{Program: "p", Crashed: crash, Counters: c})
	}
	return out
}

// reenters reports whether some coefficient of the dense trainer is
// nonzero at the end of one epoch, zero at the end of a later one, and
// nonzero again after that.
func reenters(ds *Dataset, conf TrainConfig) bool {
	const nonzero, clipped = 1, 2
	seen := make([]int, len(ds.FeatureIdx))
	for e := 1; e <= conf.Epochs; e++ {
		c := conf
		c.Epochs = e
		for j, b := range Train(ds, c).Beta {
			switch {
			case b != 0 && seen[j] == clipped:
				return true
			case b != 0:
				seen[j] = nonzero
			case seen[j] == nonzero:
				seen[j] = clipped
			}
		}
	}
	return false
}

func TestTrainSparseMatchesDense(t *testing.T) {
	cases := []struct {
		name    string
		reports []*report.Report
		// reenter requires some coefficient to clip to zero and come back
		// under every positive lambda.
		reenter bool
	}{
		{"dense-ish", synthDB(500, 60, 3, 9, 21), false},
		// A few nonzeros per row among several hundred features, plus one
		// row where every feature is nonzero: that row can fill the active
		// list, so adding it writes to the spare slot.
		{"sparse", sparseSynthDB(300, 400, 4, 22), true},
	}
	for _, c := range cases {
		dense := BuildDataset(c.reports, nil)
		sparse := BuildSparseDataset(c.reports, nil)
		for _, lambda := range []float64{0, 0.1, 0.3, 1.0} {
			conf := TrainConfig{Lambda: lambda, StepSize: 1e-2, Epochs: 25, Seed: 5}
			dm := Train(dense, conf)
			sm := TrainSparse(sparse, conf)
			if !sm.SameBits(dm) {
				if math.Float64bits(dm.Beta0) != math.Float64bits(sm.Beta0) {
					t.Errorf("%s, lambda %g: Beta0 %v != %v", c.name, lambda, sm.Beta0, dm.Beta0)
				}
				for j := range dm.Beta {
					if math.Float64bits(dm.Beta[j]) != math.Float64bits(sm.Beta[j]) {
						t.Errorf("%s, lambda %g: Beta[%d] %v != %v", c.name, lambda, j, sm.Beta[j], dm.Beta[j])
					}
				}
				t.Fatalf("%s, lambda %g: coefficients differ", c.name, lambda)
			}
			for j, b := range sm.Beta {
				if b == 0 && math.Signbit(b) {
					t.Fatalf("%s, lambda %g: Beta[%d] is -0", c.name, lambda, j)
				}
			}
			// Accuracy over the same rows must also agree bitwise.
			if da, sa := dm.Accuracy(dense), sm.AccuracySparse(sparse); da != sa {
				t.Errorf("%s, lambda %g: accuracy %v != %v", c.name, lambda, sa, da)
			}
			if c.reenter && lambda > 0 && !reenters(dense, conf) {
				t.Errorf("%s, lambda %g: no coefficient clipped to zero and re-entered", c.name, lambda)
			}
		}
	}
}

func TestProjectSparseMatchesDense(t *testing.T) {
	trainR := synthDB(200, 30, 2, 5, 31)
	freshR := synthDB(80, 30, 2, 5, 32)
	dense := BuildDataset(trainR, nil).Project(freshR)
	sparse := BuildSparseDataset(trainR, nil).Project(freshR)
	if !reflect.DeepEqual(sparse.Y, dense.Y) {
		t.Fatal("labels differ")
	}
	for i := range dense.X {
		if !reflect.DeepEqual(denseFromSparse(sparse, i), dense.X[i]) {
			t.Fatalf("projected row %d differs", i)
		}
	}
}

// The full pipeline: parallel sparse cross-validation must select the
// same lambda and the bit-identical model as the serial dense oracle.
func TestCrossValidateSparseParallelMatchesDenseSerial(t *testing.T) {
	reports := synthDB(800, 50, 7, 12, 41)
	trainR, cvR, _ := Split(reports, 0.62, 0.07, 42)
	lambdas := []float64{0.05, 0.1, 0.3, 1.0}

	dtrain := BuildDataset(trainR, nil)
	dcv := dtrain.Project(cvR)
	dl, dm := CrossValidate(dtrain, dcv, lambdas, TrainConfig{StepSize: 1e-2, Epochs: 20, Seed: 43, Workers: 1})

	strain := BuildSparseDataset(trainR, nil)
	scv := strain.Project(cvR)
	sl, sm := CrossValidateSparse(strain, scv, lambdas, TrainConfig{StepSize: 1e-2, Epochs: 20, Seed: 43, Workers: 8})

	if dl != sl {
		t.Fatalf("selected lambda %g != %g", sl, dl)
	}
	if !sm.SameBits(dm) {
		t.Fatal("selected models differ")
	}
	if !reflect.DeepEqual(sm.TopFeatures(10), dm.TopFeatures(10)) {
		t.Fatal("top-10 rankings differ")
	}
}

// Dense cross-validation itself must be worker-count invariant.
func TestCrossValidateParallelMatchesSerial(t *testing.T) {
	reports := synthDB(400, 30, 4, 8, 51)
	trainR, cvR, _ := Split(reports, 0.62, 0.07, 52)
	train := BuildDataset(trainR, nil)
	cv := train.Project(cvR)
	lambdas := []float64{0.05, 0.1, 0.3, 1.0}
	l1, m1 := CrossValidate(train, cv, lambdas, TrainConfig{StepSize: 1e-2, Epochs: 15, Seed: 53, Workers: 1})
	l8, m8 := CrossValidate(train, cv, lambdas, TrainConfig{StepSize: 1e-2, Epochs: 15, Seed: 53, Workers: 8})
	if l1 != l8 || m1.Beta0 != m8.Beta0 || !reflect.DeepEqual(m1.Beta, m8.Beta) {
		t.Fatal("worker count changed the selected model")
	}
}

// Decoded reports carry the sparse cache; building from them must equal
// building from dense-scanned originals.
func TestBuildSparseFromDecodedReports(t *testing.T) {
	reports := synthDB(120, 25, 3, 7, 61)
	var decoded []*report.Report
	for _, r := range reports {
		d, err := report.Decode(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, d)
	}
	a := BuildSparseDataset(reports, nil)
	b := BuildSparseDataset(decoded, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cached vs dense-scanned build differs")
	}
}
