package report

import (
	"encoding/binary"
	"errors"
)

// This file implements the batched wire protocol: many reports framed
// into one payload, so a client can amortize an HTTP round-trip over a
// whole buffer of runs. The framing reuses the store.go convention —
// uvarint length prefix, then one Encode()d report per frame — behind a
// distinct magic so a collector can tell a batch from a single report.
//
//	magic "CBB1"
//	varint #reports
//	repeated: varint len, report bytes (Encode format)

var batchMagic = []byte("CBB1")

// ErrBadBatch is returned by DecodeBatch for malformed input.
var ErrBadBatch = errors.New("report: malformed batch encoding")

// MaxBatchReports bounds how many frames a batch may carry, so a
// hostile length prefix cannot force a huge allocation.
const MaxBatchReports = 1 << 20

// EncodeBatch serializes many reports into one length-prefixed payload.
func EncodeBatch(reports []*Report) []byte {
	e := &encoder{buf: append([]byte(nil), batchMagic...)}
	e.uvarint(uint64(len(reports)))
	for _, r := range reports {
		e.bytes(r.Encode())
	}
	return e.buf
}

// DecodeBatch parses a payload produced by EncodeBatch.
func DecodeBatch(data []byte) ([]*Report, error) {
	if !IsBatch(data) {
		return nil, ErrBadBatch
	}
	return DecodeBody(data, 0)
}

// DecodeBody parses a collector request body: a batch (EncodeBatch) or
// a single report (Encode). numCounters is the receiver's shape; when it
// is nonzero, a report declaring any other counter count fails with
// ErrShape before its vector is allocated, and 0 accepts any count up to
// 2^28. The batch count, like each report's nonzero count, is bounded by
// the bytes left in the body.
func DecodeBody(data []byte, numCounters int) ([]*Report, error) {
	if !IsBatch(data) {
		rep, err := decode(data, numCounters)
		if err != nil {
			return nil, err
		}
		return []*Report{rep}, nil
	}
	off := len(batchMagic)
	n, w := binary.Uvarint(data[off:])
	if w <= 0 || n > MaxBatchReports || n > uint64(len(data)-off-w) {
		return nil, ErrBadBatch
	}
	off += w
	out := make([]*Report, 0, n)
	for i := uint64(0); i < n; i++ {
		size, w := binary.Uvarint(data[off:])
		if w <= 0 {
			return nil, ErrBadBatch
		}
		off += w
		if size > uint64(len(data)-off) {
			return nil, ErrBadBatch
		}
		rep, err := decode(data[off:off+int(size)], numCounters)
		if err != nil {
			return nil, err
		}
		off += int(size)
		out = append(out, rep)
	}
	if off != len(data) {
		return nil, ErrBadBatch
	}
	return out, nil
}

// IsBatch reports whether data carries the batch magic (as opposed to a
// single report's "CBR1"), letting an endpoint accept either framing.
func IsBatch(data []byte) bool {
	return len(data) >= len(batchMagic) && string(data[:len(batchMagic)]) == string(batchMagic)
}

// BatchFrames returns the frame region of a batch payload — everything
// after the magic and count, which is byte-for-byte the WriteAll/ReadAll
// framing used by report logs. A collector spilling an already-validated
// batch body to its append-only log can splice this region in directly
// instead of re-encoding every report. ok is false when data is not a
// well-formed batch header.
func BatchFrames(data []byte) (frames []byte, ok bool) {
	if !IsBatch(data) {
		return nil, false
	}
	off := len(batchMagic)
	n, w := binary.Uvarint(data[off:])
	if w <= 0 || n > MaxBatchReports {
		return nil, false
	}
	return data[off+w:], true
}
