package report

import (
	"errors"
	"runtime"
	"testing"
)

// fuzzShape is the counter count FuzzDecodeBody decodes against: a
// collector that knows its shape, the case the allocation bound covers.
const fuzzShape = 16

// Hostile bodies that once drove the unbounded decoder into multi-GiB
// allocations: a 14-byte report declaring 2^28 counters, and a 23-byte
// batch whose member declares ~2^28.
const (
	hostileReport = "CBR1\x00\x00\x00\x00\x00\x80\x80\x80\x80\x01"
	hostileBatch  = "CBB10\x11CBR10\x0100\x000\xf3\xf3\xf3x\xf3\xf3\xf3"
)

func fuzzShapeReport(id uint64) *Report {
	c := make([]uint64, fuzzShape)
	c[id%fuzzShape] = id + 1
	c[fuzzShape-1] = 3
	return &Report{RunID: id, Program: "fuzz-p", Crashed: id%2 == 0, Counters: c, Trace: []int{1, 2}}
}

// FuzzDecodeBody checks that the shape-bounded ingest decoder never
// panics and never allocates more than a constant factor of its input,
// plus one counter vector of the known shape per report the input can
// frame. Every report it accepts has exactly that shape.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(hostileReport))
	f.Add([]byte(hostileBatch))
	f.Add(fuzzShapeReport(7).Encode())
	f.Add(EncodeBatch([]*Report{fuzzShapeReport(1), fuzzShapeReport(2), fuzzShapeReport(3)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reps, err := DecodeBody(data, fuzzShape)
		runtime.ReadMemStats(&after)

		// A report only sizes its vector after its header and counts,
		// at least 12 bytes with its frame length; 64 bytes per input
		// byte covers the sparse cache, strings, trace and batch slice.
		vectors := uint64(len(data)/12 + 1)
		budget := 1<<16 + 64*uint64(len(data)) + vectors*8*fuzzShape
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), got, budget)
		}
		if err != nil {
			if reps != nil {
				t.Fatalf("error %v returned with %d reports", err, len(reps))
			}
			return
		}
		for _, r := range reps {
			if len(r.Counters) != fuzzShape {
				t.Fatalf("accepted a report with %d counters, shape %d", len(r.Counters), fuzzShape)
			}
		}
	})
}

// TestDecodeBodyRefusesHostileLengths pins how the hostile bodies fail
// against a known shape: the report on its counter count, before any
// vector exists, and the batch on a count its bytes cannot hold.
func TestDecodeBodyRefusesHostileLengths(t *testing.T) {
	if _, err := DecodeBody([]byte(hostileReport), fuzzShape); !errors.Is(err, ErrShape) {
		t.Errorf("hostile report: %v, want ErrShape", err)
	}
	if _, err := DecodeBody([]byte(hostileBatch), fuzzShape); !errors.Is(err, ErrBadBatch) {
		t.Errorf("hostile batch: %v, want ErrBadBatch", err)
	}
	if _, err := DecodeBody([]byte(hostileBatch), 0); !errors.Is(err, ErrBadBatch) {
		t.Errorf("hostile batch, any shape: %v, want ErrBadBatch", err)
	}
}
