package collecttest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cbi/internal/collect"
	"cbi/internal/report"
)

func post(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(body)))
	return rec.Code
}

// TestSyncHandlerMatchesStagedIngest replays the same bodies through
// the oracle and through the collector's staged handler: both must
// accept the same requests and end in identical aggregates and stores,
// and a batch with one bad report must fold nothing in either.
func TestSyncHandlerMatchesStagedIngest(t *testing.T) {
	var bodies [][]byte
	for b := uint64(0); b < 6; b++ {
		var batch []*report.Report
		for i := uint64(0); i < 5; i++ {
			id := b*5 + i
			batch = append(batch, &report.Report{
				RunID: id, Program: "p", Crashed: id%4 == 0,
				Counters: []uint64{id, 0, id % 3, 1},
			})
		}
		bodies = append(bodies, report.EncodeBatch(batch))
	}
	bodies = append(bodies, (&report.Report{RunID: 99, Program: "p", Counters: []uint64{0, 2, 0, 0}}).Encode())
	bad := report.EncodeBatch([]*report.Report{
		{RunID: 100, Program: "p", Counters: []uint64{1, 1, 1, 1}},
		{RunID: 101, Program: "p", Counters: []uint64{1}},
	})

	syncSrv := collect.NewServer("p", 4, collect.StoreAll)
	staged := collect.NewServer("p", 4, collect.StoreAll)
	oracle, h := SyncHandler(syncSrv), staged.Handler()
	defer syncSrv.Stop()
	defer staged.Stop()
	for i, body := range bodies {
		if a, b := post(oracle, body), post(h, body); a != http.StatusAccepted || b != http.StatusAccepted {
			t.Fatalf("body %d: oracle %d, staged %d, want 202", i, a, b)
		}
	}
	if a, b := post(oracle, bad), post(h, bad); a != http.StatusBadRequest || b != http.StatusBadRequest {
		t.Fatalf("bad batch: oracle %d, staged %d, want 400", a, b)
	}
	if got, want := staged.Aggregate(), syncSrv.Aggregate(); !reflect.DeepEqual(got, want) || want.Runs != 31 {
		t.Fatalf("staged aggregate %+v, oracle %+v (want 31 runs)", got, want)
	}
	a, b := syncSrv.DB(), staged.DB()
	if a.Len() != b.Len() {
		t.Fatalf("oracle stored %d reports, staged %d", a.Len(), b.Len())
	}
	for i := range a.Reports {
		if a.Reports[i].RunID != b.Reports[i].RunID || !reflect.DeepEqual(a.Reports[i].Counters, b.Reports[i].Counters) {
			t.Fatalf("report %d: oracle run %d, staged run %d", i, a.Reports[i].RunID, b.Reports[i].RunID)
		}
	}
}
