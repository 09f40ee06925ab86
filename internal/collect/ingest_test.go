package collect

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cbi/internal/report"
)

func postBody(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}

// TestHostilePayloadsRefusedWithinAllocationBudget posts two tiny bodies
// whose length fields once made the decoder allocate gigabytes — a
// 14-byte report declaring 2^28 counters and a 23-byte batch whose
// member declares ~2^28 — to both ingest routes. Decoding against the
// collector's shape must refuse each with a 400 while allocating less
// than 1 MiB.
func TestHostilePayloadsRefusedWithinAllocationBudget(t *testing.T) {
	srv := NewServer("p", 3, AggregateOnly)
	h := srv.Handler()
	defer srv.Stop()
	payloads := map[string]string{
		"report": "CBR1\x00\x00\x00\x00\x00\x80\x80\x80\x80\x01",
		"batch":  "CBB10\x11CBR10\x0100\x000\xf3\xf3\xf3x\xf3\xf3\xf3",
	}
	for _, path := range []string{"/report", "/reports"} {
		for name, body := range payloads {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code := postBody(h, path, []byte(body))
			runtime.ReadMemStats(&after)
			if code != http.StatusBadRequest {
				t.Errorf("%s %s payload: %d, want 400", path, name, code)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s %s payload: %d bytes allocated, want < 1 MiB", path, name, grew)
			}
		}
	}
	if runs := srv.Aggregate().Runs; runs != 0 {
		t.Errorf("hostile payloads folded %d runs", runs)
	}
}

// TestOversizeBatchFoldsAtomically covers the batch larger than a
// staging ring: it bypasses the rings and folds through Submit, must be
// accepted without shedding, and must leave the state of a serial fold.
// A same-size batch with one wrong-shape member must fold nothing.
func TestOversizeBatchFoldsAtomically(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	srv.Shards = 2
	srv.StageCapacity = 8
	h := srv.Handler()
	defer srv.Stop()

	var batch []*report.Report
	for id := uint64(1); id <= 20; id++ {
		batch = append(batch, mkReport(id, id%3 == 0))
	}
	if code := postBody(h, "/reports", report.EncodeBatch(batch)); code != http.StatusAccepted {
		t.Fatalf("20-report batch on 8-slot rings: %d, want 202", code)
	}
	if shed := srv.m.shed.Value(); shed != 0 {
		t.Errorf("oversize batch shed %d reports", shed)
	}
	for i := range srv.rings {
		if head := srv.rings[i].head.Load(); head != 0 {
			t.Errorf("ring %d took %d reports; an oversize batch must bypass the rings", i, head)
		}
	}
	assertSameAggregate(t, srv.Aggregate(), serialAggregate(t, batch))
	db := srv.DB()
	if db.Len() != len(batch) {
		t.Fatalf("DB holds %d reports, want %d", db.Len(), len(batch))
	}
	for i, got := range db.Reports {
		if got.RunID != batch[i].RunID || got.Crashed != batch[i].Crashed {
			t.Fatalf("DB report %d = run %d, want run %d", i, got.RunID, batch[i].RunID)
		}
	}

	var mixed []*report.Report
	for id := uint64(100); id < 120; id++ {
		mixed = append(mixed, mkReport(id, false))
	}
	mixed[13] = &report.Report{RunID: 113, Program: "p", Counters: make([]uint64, 7)}
	if code := postBody(h, "/reports", report.EncodeBatch(mixed)); code != http.StatusBadRequest {
		t.Fatalf("oversize batch with a wrong-shape member: %d, want 400", code)
	}
	assertSameAggregate(t, srv.Aggregate(), serialAggregate(t, batch))
	if n := srv.DB().Len(); n != len(batch) {
		t.Errorf("rejected oversize batch left %d reports, want %d", n, len(batch))
	}
}

// TestIngestRefusedAfterStop: once Stop has run, an edge has made its
// last cut and push, so a report it folded afterwards would never reach
// the root. Both ingest routes must answer 503 and fold nothing.
func TestIngestRefusedAfterStop(t *testing.T) {
	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	rootAddr, err := root.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	edge := newTestEdge(t, rootAddr, "edge-stopped")
	h := edge.Handler()
	if code := postBody(h, "/report", mkReport(1, false).Encode()); code != http.StatusAccepted {
		t.Fatalf("before Stop: %d, want 202", code)
	}
	if err := edge.Stop(); err != nil {
		t.Fatal(err)
	}
	if runs := root.Aggregate().Runs; runs != 1 {
		t.Fatalf("root has %d runs after the edge's final push, want 1", runs)
	}

	late := report.EncodeBatch([]*report.Report{mkReport(2, true), mkReport(3, false)})
	for _, path := range []string{"/report", "/reports"} {
		if code := postBody(h, path, late); code != http.StatusServiceUnavailable {
			t.Errorf("%s after Stop: %d, want 503", path, code)
		}
	}
	if runs := edge.Aggregate().Runs; runs != 1 {
		t.Errorf("edge folded %d runs after Stop, want 1", runs)
	}
	if runs := root.Aggregate().Runs; runs != 1 {
		t.Errorf("root has %d runs, want 1", runs)
	}
}

// TestAcceptedEventNamesTheRun: the -log-json event for an accepted
// request carrying one report names its run, program and crash flag, as
// the per-report event did before /report became an alias; a batch event
// carries only the request totals.
func TestAcceptedEventNamesTheRun(t *testing.T) {
	srv := NewServer("p", 3, AggregateOnly)
	var buf bytes.Buffer
	srv.Registry().SetLogWriter(&buf)
	h := srv.Handler()
	defer srv.Stop()

	one := mkReport(7, true).Encode()
	if code := postBody(h, "/report", one); code != http.StatusAccepted {
		t.Fatalf("single report: %d, want 202", code)
	}
	batch := report.EncodeBatch([]*report.Report{mkReport(8, false), mkReport(9, false)})
	if code := postBody(h, "/reports", batch); code != http.StatusAccepted {
		t.Fatalf("batch: %d, want 202", code)
	}
	var events []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event %q: %v", line, err)
		}
		if ev["event"] == "reports_accepted" {
			events = append(events, ev)
		}
	}
	if len(events) != 2 {
		t.Fatalf("%d reports_accepted events, want 2: %s", len(events), buf.Bytes())
	}
	want := map[string]any{"endpoint": "/report", "reports": 1.0, "bytes": float64(len(one)),
		"run_id": 7.0, "program": "p", "crashed": true}
	for k, v := range want {
		if events[0][k] != v {
			t.Errorf("single-report event %s = %v, want %v", k, events[0][k], v)
		}
	}
	if events[1]["reports"] != 2.0 || events[1]["endpoint"] != "/reports" {
		t.Errorf("batch event = %v, want endpoint /reports and 2 reports", events[1])
	}
	if _, ok := events[1]["run_id"]; ok {
		t.Errorf("batch event names a run: %v", events[1])
	}
}
