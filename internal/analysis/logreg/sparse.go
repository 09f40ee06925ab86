// Sparse analysis engine: a CSR design matrix built straight from each
// report's nonzero counters, and a stochastic-gradient trainer that visits
// a sample's nonzeros and the nonzero coefficients instead of every
// feature. Both are bit-identical to the dense implementations in
// logreg.go, which remain as differential oracles (see DESIGN §10 for
// the equivalence argument).

package logreg

import (
	"math"
	"math/rand"

	"cbi/internal/report"
	"cbi/internal/telemetry"
)

// SparseDataset is the CSR (compressed sparse row) counterpart of
// Dataset: row i's features are Cols[RowStart[i]:RowStart[i+1]] with
// scaled values Vals[...], column indices ascending within each row.
// Only nonzero counters are stored — at 1/100 sampling density that is
// a small fraction of the retained feature space.
type SparseDataset struct {
	RowStart []int32
	Cols     []int32
	Vals     []float64
	// Y[i] is the outcome label: 1 = crashed, 0 = succeeded.
	Y []int
	// FeatureIdx maps dataset column j back to its counter index.
	FeatureIdx []int
	// Scale holds the per-feature scaling applied (divide-by), identical
	// bit for bit to the dense BuildDataset transform.
	Scale []float64
}

// Rows returns the number of samples.
func (ds *SparseDataset) Rows() int {
	if len(ds.RowStart) == 0 {
		return 0
	}
	return len(ds.RowStart) - 1
}

// NNZ returns the number of stored (nonzero) entries.
func (ds *SparseDataset) NNZ() int { return len(ds.Cols) }

// BuildSparseDataset extracts the counters retained by keep (nil keeps
// all) from the reports into CSR form, applying exactly the dense
// builder's §3.3.3 transform: scale each feature to [0,1] by its
// maximum, then normalize to unit sample variance. The per-feature
// Scale factors — and therefore every stored value — are bit-identical
// to BuildDataset's, because the variance recurrence replays the same
// floating-point operations in the same order, running the all-zero
// gaps between a feature's nonzeros through the same per-row update.
func BuildSparseDataset(reports []*report.Report, keep []bool) *SparseDataset {
	defer telemetry.StartSpan("logreg.build_sparse_dataset").End()
	if len(reports) == 0 {
		return &SparseDataset{}
	}
	n := len(reports[0].Counters)
	// colOf maps counter index -> dataset column, -1 for dropped counters.
	colOf := make([]int32, n)
	var idx []int
	for j := 0; j < n; j++ {
		if keep == nil || (j < len(keep) && keep[j]) {
			colOf[j] = int32(len(idx))
			idx = append(idx, j)
		} else {
			colOf[j] = -1
		}
	}
	ds := &SparseDataset{FeatureIdx: idx}
	rows := len(reports)

	// CSR fill from each report's sparse form (counter indices ascend, so
	// columns ascend within a row). Values are raw counts for now; the
	// scale division lands after Scale is known.
	ds.RowStart = make([]int32, 1, rows+1)
	for _, r := range reports {
		r.ForEachNonzero(func(j int, c uint64) {
			if col := colOf[j]; col >= 0 {
				ds.Cols = append(ds.Cols, col)
				ds.Vals = append(ds.Vals, float64(c))
			}
		})
		ds.RowStart = append(ds.RowStart, int32(len(ds.Cols)))
		ds.Y = append(ds.Y, r.Label())
	}

	// Transpose to CSC so each feature's nonzeros can be walked in row
	// order with the zero gaps run as a register-resident loop.
	nnz := len(ds.Cols)
	features := len(idx)
	colPtr := make([]int32, features+1)
	for _, c := range ds.Cols {
		colPtr[c+1]++
	}
	for j := 0; j < features; j++ {
		colPtr[j+1] += colPtr[j]
	}
	colRow := make([]int32, nnz)
	colVal := make([]float64, nnz)
	fill := append([]int32(nil), colPtr[:features]...)
	for i := 0; i < rows; i++ {
		for e := ds.RowStart[i]; e < ds.RowStart[i+1]; e++ {
			c := ds.Cols[e]
			colRow[fill[c]] = int32(i)
			colVal[fill[c]] = ds.Vals[e]
			fill[c]++
		}
	}

	// Per-feature max scale + unit-variance normalization, replaying the
	// dense builder's exact operation sequence (see its comments).
	ds.Scale = make([]float64, features)
	for j := 0; j < features; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		maxv := 0.0
		for e := lo; e < hi; e++ {
			if colVal[e] > maxv {
				maxv = colVal[e]
			}
		}
		if maxv == 0 {
			maxv = 1
		}
		mean, m2 := 0.0, 0.0
		if lo < hi {
			next := lo
			for i := 0; i < rows; i++ {
				v := 0.0
				if next < hi && int(colRow[next]) == i {
					v = colVal[next] / maxv
					next++
				}
				delta := v - mean
				mean += delta / float64(i+1)
				m2 += delta * (v - mean)
			}
		}
		// A feature with no nonzeros leaves mean and m2 at exactly 0, the
		// same values the dense all-zero loop produces, so skipping it is
		// safe.
		variance := 0.0
		if rows > 1 {
			variance = m2 / float64(rows-1)
		}
		std := math.Sqrt(variance)
		if std == 0 {
			std = 1
		}
		ds.Scale[j] = maxv * std
	}
	for e := range ds.Vals {
		ds.Vals[e] /= ds.Scale[ds.Cols[e]]
	}
	return ds
}

// Project applies this dataset's feature selection and scaling to fresh
// reports, producing a compatible sparse dataset (the CSR counterpart of
// Dataset.Project).
func (ds *SparseDataset) Project(reports []*report.Report) *SparseDataset {
	out := &SparseDataset{FeatureIdx: ds.FeatureIdx, Scale: ds.Scale}
	maxCounter := 0
	for _, j := range ds.FeatureIdx {
		if j >= maxCounter {
			maxCounter = j + 1
		}
	}
	colOf := make([]int32, maxCounter)
	for i := range colOf {
		colOf[i] = -1
	}
	for col, j := range ds.FeatureIdx {
		colOf[j] = int32(col)
	}
	out.RowStart = make([]int32, 1, len(reports)+1)
	for _, r := range reports {
		r.ForEachNonzero(func(j int, c uint64) {
			if j >= maxCounter {
				return
			}
			if col := colOf[j]; col >= 0 {
				out.Cols = append(out.Cols, col)
				out.Vals = append(out.Vals, float64(c)/ds.Scale[col])
			}
		})
		out.RowStart = append(out.RowStart, int32(len(out.Cols)))
		out.Y = append(out.Y, r.Label())
	}
	return out
}

// TrainSparse fits the same model as Train — bit for bit, given the same
// dataset values, config, and therefore visit order — visiting only the
// sample's nonzeros and the nonzero coefficients instead of every feature.
//
// The dense trainer skips feature j only when x[j] == 0 and Beta[j] == 0;
// every other feature gets Beta[j] += step·g·x[j] and one soft-threshold
// step. That set is the active list here: the nonzero coefficients plus
// the sample's features. Each threshold step touches only its own
// coefficient, so the list's order does not matter, and step·g·0 leaves
// an untouched nonzero coefficient unchanged.
func TrainSparse(ds *SparseDataset, conf TrainConfig) *Model {
	defer telemetry.StartSpan("logreg.train_sparse").End()
	if conf.StepSize == 0 {
		conf.StepSize = 1e-3
	}
	if conf.Epochs == 0 {
		conf.Epochs = 60
	}
	features := len(ds.FeatureIdx)
	m := &Model{Beta: make([]float64, features), FeatureIdx: ds.FeatureIdx, Lambda: conf.Lambda}
	rng := rand.New(rand.NewSource(conf.Seed))
	step := conf.StepSize
	shrink := step * conf.Lambda
	perm := make([]int, ds.Rows())
	// active[:n] lists the features with nonzero coefficients, on[j] marks
	// them. A row's feature is written to active[n] before on[j] says
	// whether it is new, hence the one spare slot.
	active := make([]int32, features+1)
	on := make([]uint8, features)
	n := 0
	for epoch := 0; epoch < conf.Epochs; epoch++ {
		permute(rng, perm)
		for _, i := range perm {
			cols, vals := ds.row(i)
			mu := 1 / (1 + math.Exp(-margin(m.Beta0, m.Beta, cols, vals)))
			g := float64(ds.Y[i]) - mu
			sg := step * g
			m.Beta0 += sg
			for e, j := range cols {
				m.Beta[j] += sg * vals[e]
				active[n] = j
				n += int(1 - on[j])
				on[j] = 1
			}
			n = threshold(m.Beta, active[:n], on, shrink)
		}
	}
	return m
}

// threshold applies one ℓ1 shrinkage step with clipping at zero
// (truncated gradient) to each listed coefficient, without a branch, and
// compacts the list down to the coefficients still nonzero. With d =
// |b| - shrink, b becomes d carrying b's sign when d > 0 and +0 otherwise:
// rounding is symmetric in sign, so that is the dense trainer's b-shrink
// or b+shrink exactly, and a NaN clips to +0 as in its switch.
func threshold(beta []float64, active []int32, on []uint8, shrink float64) int {
	const signBit = 1 << 63
	k := 0
	for _, j := range active {
		bits := math.Float64bits(beta[j])
		d := math.Float64frombits(bits&^signBit) - shrink
		keep := uint8(0)
		if d > 0 {
			keep = 1
		}
		beta[j] = math.Float64frombits((math.Float64bits(d) | bits&signBit) & -uint64(keep))
		active[k] = j
		on[j] = keep
		k += int(keep)
	}
	return k
}

// row returns CSR row i's column indices and values.
func (ds *SparseDataset) row(i int) ([]int32, []float64) {
	lo, hi := ds.RowStart[i], ds.RowStart[i+1]
	return ds.Cols[lo:hi], ds.Vals[lo:hi]
}

// margin returns z plus the row's coefficient terms, summed in the dense
// prob's ascending-column order so the result is bit-identical.
func margin(z float64, beta []float64, cols []int32, vals []float64) float64 {
	vals = vals[:len(cols)]
	for e, j := range cols {
		z += beta[j] * vals[e]
	}
	return z
}

// probSparse computes the crash probability for CSR row i.
func (m *Model) probSparse(ds *SparseDataset, i int) float64 {
	cols, vals := ds.row(i)
	return 1 / (1 + math.Exp(-margin(m.Beta0, m.Beta, cols, vals)))
}

// AccuracySparse returns the fraction of rows classified correctly — the
// sparse counterpart of Accuracy.
func (m *Model) AccuracySparse(ds *SparseDataset) float64 {
	rows := ds.Rows()
	if rows == 0 {
		return 0
	}
	ok := 0
	for i := 0; i < rows; i++ {
		class := 0
		if m.probSparse(ds, i) > 0.5 {
			class = 1
		}
		if class == ds.Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(rows)
}

// CrossValidateSparse mirrors CrossValidate on CSR datasets: the
// independent per-lambda TrainSparse fits fan out across conf.Workers
// goroutines and the winner is selected in lambda order. Because
// TrainSparse is bit-identical to Train and AccuracySparse to Accuracy,
// the selected lambda and model match the dense serial cross-validation
// exactly.
func CrossValidateSparse(train, cv *SparseDataset, lambdas []float64, conf TrainConfig) (float64, *Model) {
	defer telemetry.StartSpan("logreg.cross_validate_sparse").End()
	models := make([]*Model, len(lambdas))
	accs := make([]float64, len(lambdas))
	fanOut(len(lambdas), conf.Workers, func(k int) {
		c := conf
		c.Lambda = lambdas[k]
		models[k] = TrainSparse(train, c)
		accs[k] = models[k].AccuracySparse(cv)
	})
	return pickBest(lambdas, models, accs)
}
