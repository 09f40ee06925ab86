package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/collect"
	"cbi/internal/report"
	"cbi/internal/telemetry"
)

// tally accumulates the wall time, call count and request bytes of one
// kind of call, from any goroutine.
type tally struct {
	ns, n, bytes atomic.Int64
}

func (t *tally) add(d time.Duration, bytes int64) {
	t.ns.Add(int64(d))
	t.n.Add(1)
	if bytes > 0 {
		t.bytes.Add(bytes)
	}
}

func (t *tally) seconds() float64 { return time.Duration(t.ns.Load()).Seconds() }

// handlerTimes is what the timing wrapper around Server.Handler records
// in a traced run.
type handlerTimes struct {
	ingest tally // POST /report, /reports on the collectors the clients talk to
	merge  tally // POST /merge on the root
	read   tally // GET /rankings, /stats
}

// timed wraps a collector's handler so a traced run can time each call
// from outside the program.
func timed(h http.Handler, ht *handlerTimes) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		switch r.URL.Path {
		case "/report", "/reports":
			ht.ingest.add(d, r.ContentLength)
		case "/merge":
			ht.merge.add(d, r.ContentLength)
		case "/rankings", "/stats":
			ht.read.add(d, 0)
		}
	})
}

// served is a collector handler listening on the benchmark's own
// loopback listener.
type served struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

// serve starts h on an ephemeral loopback port. With ht set (a traced
// run) every request is timed.
func serve(h http.Handler, ht *handlerTimes) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if ht != nil {
		h = timed(h, ht)
	}
	s := &served{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops accepting, waits for in-flight requests, and waits for
// the serving goroutine to exit.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// postProbe marks a SubmitContext or Flush call that reached the
// network: the probing transport sets it from the request's context.
type postProbe struct{ posted atomic.Bool }

type probeKey struct{}

type probingTransport struct{ base http.RoundTripper }

func (t probingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p, ok := req.Context().Value(probeKey{}).(*postProbe); ok {
		p.posted.Store(true)
	}
	return t.base.RoundTrip(req)
}

// poster is one batched collect.Client plus the latency of every batch
// POST it made, retries included: a SubmitContext or Flush call that
// shipped a batch lasts exactly as long as that POST (encode, HTTP, and
// any retry back-off), while the other calls only append to the buffer.
type poster struct {
	client    *collect.Client
	transport *http.Transport
	reg       *telemetry.Registry

	mu  sync.Mutex
	lat []float64 // ms
}

func newPoster(url string, batch int) *poster {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	c := collect.NewClient(url)
	c.BatchSize = batch
	c.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: probingTransport{tr}}
	c.Metrics = telemetry.NewRegistry()
	return &poster{client: c, transport: tr, reg: c.Metrics}
}

func (p *poster) call(ctx context.Context, f func(context.Context) error) error {
	probe := &postProbe{}
	ctx = context.WithValue(ctx, probeKey{}, probe)
	t0 := time.Now()
	err := f(ctx)
	if probe.posted.Load() {
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		p.mu.Lock()
		p.lat = append(p.lat, ms)
		p.mu.Unlock()
	}
	return err
}

// submit is the fleet's Submit hook.
func (p *poster) submit(ctx context.Context, rep *report.Report) error {
	return p.call(ctx, func(ctx context.Context) error { return p.client.SubmitContext(ctx, rep) })
}

func (p *poster) flush(ctx context.Context) error {
	return p.call(ctx, p.client.Flush)
}

func (p *poster) close() { p.transport.CloseIdleConnections() }

// readInterval is the reader's cadence.
const readInterval = 20 * time.Millisecond

// reader is the one closed-loop reader: every readInterval it GETs
// /rankings (timed: read_p50_ms, read_p95_ms) and then /stats.
type reader struct {
	client *http.Client
	stop   chan struct{}
	once   sync.Once
	done   chan struct{}
	lat    []float64 // ms, /rankings only
	err    error     // first failed read
}

func startReader(base string) *reader {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	r := &reader{
		client: &http.Client{Timeout: 30 * time.Second, Transport: tr},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		defer tr.CloseIdleConnections()
		tick := time.NewTicker(readInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			err := get(r.client, base+"/rankings", nil)
			r.lat = append(r.lat, float64(time.Since(t0))/float64(time.Millisecond))
			if err == nil {
				err = get(r.client, base+"/stats", nil)
			}
			if err != nil && r.err == nil {
				r.err = err
			}
		}
	}()
	return r
}

// finish stops the reader and waits for it; lat and err are then safe
// to read. Later calls only wait.
func (r *reader) finish() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// get fetches url, requires 200, and decodes JSON into v when v is set.
func get(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, msg)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// percentile interpolates linearly between the closest ranks of a
// sorted copy of xs (q in [0,1]); 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
