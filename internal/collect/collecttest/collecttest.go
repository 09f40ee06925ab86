// Package collecttest holds the fold-in-handler ingest oracle that the
// collector's staged pipeline is bit-identical to. It is test and
// benchmark support, never mounted by a production server.
package collecttest

import (
	"fmt"
	"io"
	"net/http"

	"cbi/internal/collect"
	"cbi/internal/report"
)

// SyncHandler is the fold-in-handler oracle for /reports bodies: it
// reads the body up to collect.MaxBodyBytes, decodes it, validates the
// whole batch so a bad report folds nothing, then folds every report
// inside the request through srv.Submit and answers 202. It has none of
// the rings, spill or batch accounting of the collector's own handler,
// and it decodes without the collector's shape bound, so feed it only
// trusted bodies.
func SyncHandler(srv *collect.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, collect.MaxBodyBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > collect.MaxBodyBytes {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", collect.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		reps, err := report.DecodeBody(body, 0)
		for i := 0; err == nil && i < len(reps); i++ {
			err = srv.Validate(reps[i])
		}
		for i := 0; err == nil && i < len(reps); i++ {
			err = srv.Submit(reps[i])
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
}
