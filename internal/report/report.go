// Package report defines the per-run feedback record of §2.5 — a vector
// of predicate counters plus a success/crash flag — together with a
// compact wire codec, an in-memory database, and aggregate ("sufficient
// statistics") summaries that support the elimination strategies without
// retaining individual runs (§5's privacy mechanism).
package report

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Report is the result of one remote run. Its size is dominated by the
// counter vector, whose length is fixed by the instrumented program, "
// largely independent of the sampling density or running time" (§2.5).
type Report struct {
	// RunID identifies the run (assigned by the generator or collector).
	RunID uint64
	// Program names the instrumented program build, so a collector can
	// reject mismatched counter spaces.
	Program string
	// Crashed records whether the run was aborted by a fatal signal
	// (§3.3.1's binary outcome label).
	Crashed bool
	// TrapKind describes the crash ("out-of-bounds access", ...).
	TrapKind string
	// ExitCode is main's return value for successful runs.
	ExitCode int64
	// Counters holds how often each predicate was observed true.
	Counters []uint64
	// Trace optionally holds the site IDs of the last few sampled probe
	// firings in order (the bounded partial trace the paper defers to
	// future work in §2.5).
	Trace []int

	// nz caches the nonzero (index, value) pairs of Counters in ascending
	// index order. At realistic sampling densities a counter vector is
	// overwhelmingly zeros, so consumers that only care about observed
	// predicates (Aggregate.Fold, DB.TotalCounts, elimination trials,
	// sparse regression datasets) iterate this instead of scanning the
	// dense vector. Decode populates it for free from the wire pairs;
	// Nonzeros builds it on demand. The cache assumes Counters is not
	// mutated after it is built — every pipeline path treats reports as
	// immutable once constructed.
	nz []CounterNZ

	// wire is the encoded size in bytes this report arrived as (set by
	// Decode; 0 for reports constructed in process), and lenient records
	// whether Decode accepted it only through the leniency path
	// (duplicate counter indices or explicit zero pairs — see Decode).
	// Ingest-quality accounting reads both via WireLen and Lenient.
	wire    int
	lenient bool
}

// WireLen returns the encoded size in bytes the report was decoded
// from, or 0 if it was constructed in process.
func (r *Report) WireLen() int { return r.wire }

// Lenient reports whether Decode accepted this report through the
// leniency path: duplicate counter indices or explicit zero pairs,
// encodings no real client produces. Such reports still fold, but the
// collector quarantine-counts them.
func (r *Report) Lenient() bool { return r.lenient }

// CounterNZ is one nonzero counter: its index in the program's counter
// space and its observed count.
type CounterNZ struct {
	Index int32
	Value uint64
}

// Nonzeros returns the report's nonzero counters in ascending index
// order, building and caching the sparse form on first call. The build
// mutates the report, so concurrent callers must ensure the cache exists
// (call Nonzeros once, or Decode the report) before sharing it across
// goroutines; ForEachNonzero never mutates and is always safe.
func (r *Report) Nonzeros() []CounterNZ {
	if r.nz == nil {
		n := 0
		for _, c := range r.Counters {
			if c != 0 {
				n++
			}
		}
		nz := make([]CounterNZ, 0, n)
		for i, c := range r.Counters {
			if c != 0 {
				nz = append(nz, CounterNZ{Index: int32(i), Value: c})
			}
		}
		r.nz = nz
	}
	return r.nz
}

// ForEachNonzero calls f for every nonzero counter in ascending index
// order. It uses the cached sparse form when one exists and falls back
// to a dense scan otherwise, never mutating the report — safe for
// concurrent use on a report that is no longer being written.
func (r *Report) ForEachNonzero(f func(i int, c uint64)) {
	if r.nz != nil {
		for _, e := range r.nz {
			f(int(e.Index), e.Value)
		}
		return
	}
	for i, c := range r.Counters {
		if c != 0 {
			f(i, c)
		}
	}
}

// Label returns the logistic-regression outcome: 1 for a crash, 0 for a
// successful run.
func (r *Report) Label() int {
	if r.Crashed {
		return 1
	}
	return 0
}

// ----------------------------------------------------------------------------
// Wire codec

// The format is deliberately sparse: most counters are zero in any given
// sampled run, so counters are encoded as (index delta, value) varint
// pairs.
//
//	magic "CBR1"
//	varint RunID
//	varint len(Program), bytes
//	byte   crashed (0/1)
//	varint len(TrapKind), bytes
//	varint zigzag(ExitCode)
//	varint NumCounters
//	varint #nonzero
//	repeated: varint indexDelta, varint value
//	varint len(Trace)
//	repeated: varint siteID

var magic = []byte("CBR1")

// ErrBadReport is returned by Decode for malformed input.
var ErrBadReport = errors.New("report: malformed encoding")

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) byteVal(b byte)   { e.buf = append(e.buf, b) }

// Encode serializes the report.
func (r *Report) Encode() []byte {
	e := &encoder{buf: append([]byte(nil), magic...)}
	e.uvarint(r.RunID)
	e.bytes([]byte(r.Program))
	if r.Crashed {
		e.byteVal(1)
	} else {
		e.byteVal(0)
	}
	e.bytes([]byte(r.TrapKind))
	e.varint(r.ExitCode)
	e.uvarint(uint64(len(r.Counters)))
	nonzero := 0
	for _, c := range r.Counters {
		if c != 0 {
			nonzero++
		}
	}
	e.uvarint(uint64(nonzero))
	prev := 0
	for i, c := range r.Counters {
		if c == 0 {
			continue
		}
		e.uvarint(uint64(i - prev))
		e.uvarint(c)
		prev = i
	}
	e.uvarint(uint64(len(r.Trace)))
	for _, id := range r.Trace {
		e.uvarint(uint64(id))
	}
	return e.buf
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrBadReport
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = ErrBadReport
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = ErrBadReport
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = ErrBadReport
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// ErrShape marks a report whose counter count differs from the one the
// receiver expects. The shape-bounded decoders return it (wrapped)
// before the counter vector is allocated.
var ErrShape = errors.New("report: counter count does not match the receiver")

// Decode parses a report encoded by Encode, accepting any counter count
// up to 2^28. A receiver that knows its shape decodes with DecodeBody.
func Decode(data []byte) (*Report, error) { return decode(data, 0) }

// decode parses one report; numCounters > 0 is the only counter count
// it accepts, 0 accepts any.
func decode(data []byte, numCounters int) (*Report, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, ErrBadReport
	}
	d := &decoder{buf: data, off: len(magic)}
	r := &Report{wire: len(data)}
	r.RunID = d.uvarint()
	r.Program = string(d.bytes())
	r.Crashed = d.byteVal() != 0
	r.TrapKind = string(d.bytes())
	r.ExitCode = d.varint()
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if numCounters > 0 && n != uint64(numCounters) {
		return nil, fmt.Errorf("%w: %d counters, want %d", ErrShape, n, numCounters)
	}
	if n > 1<<28 {
		return nil, ErrBadReport
	}
	nz := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Each (delta, value) pair takes at least two bytes, so a count the
	// rest of the payload cannot hold is refused before it sizes anything.
	if nz > n || nz > uint64(len(d.buf)-d.off)/2 {
		return nil, ErrBadReport
	}
	r.Counters = make([]uint64, n)
	// The wire format is already sparse (index-delta, value pairs), so the
	// in-memory sparse form comes for free during decoding: downstream
	// folds and analyses iterate it instead of rescanning the dense vector.
	r.nz = make([]CounterNZ, 0, nz)
	cacheOK := true
	idx := 0
	for i := uint64(0); i < nz; i++ {
		delta := d.uvarint()
		val := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		idx += int(delta)
		if idx < 0 || idx >= len(r.Counters) {
			return nil, ErrBadReport
		}
		r.Counters[idx] = val
		if val != 0 {
			r.nz = append(r.nz, CounterNZ{Index: int32(idx), Value: val})
		}
		// A duplicate index (delta 0 past the first pair) or an explicit
		// zero never comes from Encode but was historically accepted;
		// keep accepting it, but drop the cache rather than let it
		// disagree with the dense vector.
		if val == 0 || (i > 0 && delta == 0) {
			cacheOK = false
		}
	}
	if !cacheOK {
		r.nz = nil
		r.lenient = true
	}
	tn := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if tn > 1<<20 {
		return nil, ErrBadReport
	}
	for i := uint64(0); i < tn; i++ {
		id := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		r.Trace = append(r.Trace, int(id))
	}
	return r, nil
}

// ----------------------------------------------------------------------------
// Database

// DB is an in-memory collection of reports for one program build.
type DB struct {
	Program     string
	NumCounters int
	Reports     []*Report
}

// NewDB creates an empty database for a program with the given counter
// space.
func NewDB(program string, numCounters int) *DB {
	return &DB{Program: program, NumCounters: numCounters}
}

// Add appends a report, validating its shape.
func (db *DB) Add(r *Report) error {
	if db.Program != "" && r.Program != "" && r.Program != db.Program {
		return fmt.Errorf("report: program %q does not match database %q", r.Program, db.Program)
	}
	if db.NumCounters != 0 && len(r.Counters) != db.NumCounters {
		return fmt.Errorf("report: counter vector length %d, want %d", len(r.Counters), db.NumCounters)
	}
	db.Reports = append(db.Reports, r)
	return nil
}

// Len returns the number of reports.
func (db *DB) Len() int { return len(db.Reports) }

// Successes returns the successful runs.
func (db *DB) Successes() []*Report { return db.filter(false) }

// Failures returns the crashed runs.
func (db *DB) Failures() []*Report { return db.filter(true) }

func (db *DB) filter(crashed bool) []*Report {
	var out []*Report
	for _, r := range db.Reports {
		if r.Crashed == crashed {
			out = append(out, r)
		}
	}
	return out
}

// TotalCounts merges all counter vectors by summation, visiting only
// each report's nonzero counters.
func (db *DB) TotalCounts() []uint64 {
	total := make([]uint64, db.NumCounters)
	for _, r := range db.Reports {
		r.ForEachNonzero(func(i int, c uint64) {
			total[i] += c
		})
	}
	return total
}

// ----------------------------------------------------------------------------
// Sufficient statistics

// Aggregate maintains exactly the statistics the elimination strategies
// need, without retaining individual runs: per-counter "ever observed
// true" bits split by outcome, plus totals. Once folded in, a report can
// be discarded — the §5 privacy property ("if the analysis host is
// compromised, an attacker cannot recover the precise details of any
// single past trace").
type Aggregate struct {
	Program          string
	NumCounters      int
	Runs             int
	Crashes          int
	NonzeroInSuccess []bool
	NonzeroInFailure []bool
	Totals           []uint64
}

// NewAggregate creates an empty aggregate.
func NewAggregate(program string, numCounters int) *Aggregate {
	return &Aggregate{
		Program:          program,
		NumCounters:      numCounters,
		NonzeroInSuccess: make([]bool, numCounters),
		NonzeroInFailure: make([]bool, numCounters),
		Totals:           make([]uint64, numCounters),
	}
}

// Fold absorbs one report. An aggregate created with zero counters (a
// collector run with "accept any" shape) adopts the shape of the first
// report folded into it.
func (a *Aggregate) Fold(r *Report) error {
	if a.NumCounters == 0 && a.Runs == 0 && len(r.Counters) > 0 {
		a.NumCounters = len(r.Counters)
		a.NonzeroInSuccess = make([]bool, a.NumCounters)
		a.NonzeroInFailure = make([]bool, a.NumCounters)
		a.Totals = make([]uint64, a.NumCounters)
	}
	if len(r.Counters) != a.NumCounters {
		return fmt.Errorf("report: counter vector length %d, want %d", len(r.Counters), a.NumCounters)
	}
	a.Runs++
	if r.Crashed {
		a.Crashes++
	}
	// Iterate the sparse form when the report carries one (every decoded
	// report does): at 1/100 sampling a counter vector is overwhelmingly
	// zeros, so folding nonzeros is the difference between O(observed)
	// and O(counter space) per report.
	hit := a.NonzeroInSuccess
	if r.Crashed {
		hit = a.NonzeroInFailure
	}
	r.ForEachNonzero(func(i int, c uint64) {
		a.Totals[i] += c
		hit[i] = true
	})
	return nil
}

// FromDB folds an entire database.
func (a *Aggregate) FromDB(db *DB) error {
	for _, r := range db.Reports {
		if err := a.Fold(r); err != nil {
			return err
		}
	}
	return nil
}

// Merge absorbs another aggregate into a. Because every statistic here
// is order-free (run/crash counts sum, "ever nonzero" bits OR, totals
// sum), folding reports into shards and merging the shards yields
// exactly the same aggregate as folding every report serially — the
// property that makes concurrent sharded collection legal. An aggregate
// that has not yet fixed its counter shape adopts o's, mirroring Fold.
func (a *Aggregate) Merge(o *Aggregate) error {
	if o.Runs == 0 && o.NumCounters == 0 {
		return nil
	}
	if a.NumCounters == 0 && a.Runs == 0 && o.NumCounters > 0 {
		a.NumCounters = o.NumCounters
		a.NonzeroInSuccess = make([]bool, o.NumCounters)
		a.NonzeroInFailure = make([]bool, o.NumCounters)
		a.Totals = make([]uint64, o.NumCounters)
	}
	if o.NumCounters != a.NumCounters {
		return fmt.Errorf("report: aggregate shape %d, want %d", o.NumCounters, a.NumCounters)
	}
	if a.Program == "" {
		a.Program = o.Program
	}
	a.Runs += o.Runs
	a.Crashes += o.Crashes
	for i := 0; i < o.NumCounters; i++ {
		a.Totals[i] += o.Totals[i]
		a.NonzeroInSuccess[i] = a.NonzeroInSuccess[i] || o.NonzeroInSuccess[i]
		a.NonzeroInFailure[i] = a.NonzeroInFailure[i] || o.NonzeroInFailure[i]
	}
	return nil
}
