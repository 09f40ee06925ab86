package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/analysis/score"
	"cbi/internal/cfg"
	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/workloads"
)

// sizes fixes how much work one workload does; it is printed in the
// environment block of every result.
type sizes struct {
	Runs         int     `json:"runs"`
	Density      float64 `json:"density"`
	FleetWorkers int     `json:"fleet_workers"`
	Batch        int     `json:"batch"`
	Submitters   int     `json:"submitters"`
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// MinPasses timed passes run even when the time budget is spent.
	MinPasses int `json:"min_passes"`
	// isolate_reports pools passes 0 (the warm-up) to IsolatePasses-1,
	// each over Orderings orders of its stored reports, so it depends
	// only on the seed, never on how many passes fit in the budget.
	IsolatePasses int `json:"isolate_passes"`
	Orderings     int `json:"isolate_orderings"`
}

type workload struct {
	name  string
	sizes sizes
	setup func(seed int64, sz sizes) (*state, error)
	pass  func(b *bench, st *state, d int) (*passResult, error)
}

// The paper's run counts: 2,990 for ccrypt (§3.2) and 4,390 for bc
// (§3.3). Each density is the lower of the two probed at which the
// planted predicate ranked first in every probe fleet (see README.md),
// so no seed fails the top-1 verdict. The study fleets run one
// worker, so the collector and the reader have a CPU of their own on two
// vCPUs.
var allWorkloads = []*workload{
	{
		name: "ccrypt-fleet",
		sizes: sizes{Runs: 2990, Density: 0.1, FleetWorkers: 1, Batch: 64, Submitters: 1, SetupReps: 25,
			MinPasses: 3, IsolatePasses: 4, Orderings: 64},
		setup: setupCcrypt,
		pass:  studyPass,
	},
	{
		name: "bc-study",
		sizes: sizes{Runs: 4390, Density: 0.2, FleetWorkers: 1, Batch: 64, Submitters: 1, SetupReps: 25,
			MinPasses: 3, IsolatePasses: 3, Orderings: 32},
		setup: setupBC,
		pass:  studyPass,
	},
	{
		name: "replay-tree",
		sizes: sizes{Runs: 4390, Density: 0.2, FleetWorkers: 2, Batch: 64, Submitters: 2, SetupReps: 3,
			MinPasses: 3, IsolatePasses: 1, Orderings: 32},
		setup: setupReplay,
		pass:  replayPass,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// seedBase derives pass d's fleet seeds from the benchmark seed. Run i
// of the pass uses seedBase+i, so passes never share a run seed.
func seedBase(seed int64, d int) int64 { return seed*1_000_000_000 + int64(d)*100_000 }

// study is one instrumented case-study program.
type study struct {
	name    string // report program name
	prog    *cfg.Program
	spans   []score.SiteSpan
	fleet   func(*cfg.Program, workloads.FleetConfig) (*report.DB, error)
	planted func(counter int) bool
	// analyze is the study's offline analysis on the collector, with its
	// verdict. It returns the stored DB when it had to fetch it.
	analyze func(srv *collect.Server, s *study, fseed int64, l *layerSample) (*report.DB, verdict)
}

// state is what set-up hands to every pass.
type state struct {
	seed  int64
	sz    sizes
	study *study
	// replay-tree only: one report slice per submitter, with fresh run
	// IDs, and the expected answers derived from them.
	replay     [][]*report.Report
	replayOnce sync.Once
	replayAgg  *report.Aggregate
	replayRank []score.Predicate
	replayErr  error
}

func spansOf(p *cfg.Program) []score.SiteSpan {
	spans := make([]score.SiteSpan, len(p.Sites))
	for i, s := range p.Sites {
		spans[i] = score.SiteSpan{Base: s.CounterBase, Len: s.NumCounters}
	}
	return spans
}

// ccryptPlanted is the predicate §3.2 isolates: xreadline's EOF return,
// at any of its call sites.
const ccryptPlanted = "xreadline() return value == 0"

func setupCcrypt(seed int64, sz sizes) (*state, error) {
	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		return nil, err
	}
	prog := built.Program
	interp.Compile(prog)
	planted := map[int]bool{}
	for c := 0; c < prog.NumCounters; c++ {
		if strings.HasSuffix(prog.PredicateName(c), ccryptPlanted) {
			planted[c] = true
		}
	}
	if len(planted) == 0 {
		return nil, fmt.Errorf("ccrypt has no predicate %q", ccryptPlanted)
	}
	return &state{seed: seed, sz: sz, study: &study{
		name: "ccrypt", prog: prog, spans: spansOf(prog), fleet: workloads.CcryptFleet,
		planted: func(c int) bool { return planted[c] }, analyze: ccryptAnalysis,
	}}, nil
}

func buildBC() (*study, error) {
	built, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		return nil, err
	}
	prog := built.Program
	interp.Compile(prog)
	// §3.3's bug is the more_arrays() overrun; every predicate at one of
	// its sites points at it.
	return &study{
		name: "bc", prog: prog, spans: spansOf(prog), fleet: workloads.BCFleet,
		planted: func(c int) bool {
			s := prog.SiteForCounter(c)
			return s != nil && s.Fn == "more_arrays"
		},
		analyze: bcAnalysis,
	}, nil
}

func setupBC(seed int64, sz sizes) (*state, error) {
	s, err := buildBC()
	if err != nil {
		return nil, err
	}
	return &state{seed: seed, sz: sz, study: s}, nil
}

// setupReplay builds bc, runs one fleet, and pre-generates each
// submitter's copy of its reports under fresh run IDs.
func setupReplay(seed int64, sz sizes) (*state, error) {
	s, err := buildBC()
	if err != nil {
		return nil, err
	}
	db, err := s.fleet(s.prog, workloads.FleetConfig{
		Runs: sz.Runs, Density: sz.Density, SeedBase: seedBase(seed, 0), Workers: sz.FleetWorkers,
	})
	if err != nil {
		return nil, err
	}
	st := &state{seed: seed, sz: sz, study: s, replay: make([][]*report.Report, sz.Submitters)}
	n := len(db.Reports)
	for k := range st.replay {
		reps := make([]*report.Report, n)
		for i, r := range db.Reports {
			c := *r
			c.RunID = uint64((k+1)*n + i)
			reps[i] = &c
		}
		st.replay[k] = reps
	}
	return st, nil
}

// newCollector configures a collector the way cbi-collect does by
// default: staged ingest, the quality engine on, and — where a live
// ranking is served — the monitor with its default cadence.
func newCollector(s *study, mode collect.Mode, withMonitor bool) *collect.Server {
	srv := collect.NewServer(s.name, s.prog.NumCounters, mode)
	srv.Sites = s.spans
	if withMonitor {
		srv.Monitor = monitor.New(monitor.Config{
			TopK: 10, EveryReports: 500, Interval: 2 * time.Second, StableFor: 3,
			PredicateName: s.prog.PredicateName,
		})
	}
	srv.Quality = quality.New(quality.Config{Interval: time.Second, RingSize: 64, TopK: 10})
	return srv
}

// rankings is the /rankings document.
type rankings struct {
	Runs    int             `json:"runs"`
	Crashes int             `json:"crashes"`
	Ranked  int             `json:"ranked"`
	Top     []monitor.Entry `json:"top"`
}

// fetchRankings reads the full live ranking, computed fresh from the
// collector's state — the deployment's answer.
func fetchRankings(base string) (*rankings, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	var r rankings
	err := get(&http.Client{Timeout: 30 * time.Second, Transport: tr}, base+"/rankings?fresh=1&top=0", &r)
	return &r, err
}

// studyPass is one ccrypt-fleet or bc-study deployment: a fresh
// collector, the fleet submitting through one batched client, the final
// ranking, and the offline analysis, all on the clock; verification
// after it.
func studyPass(b *bench, st *state, d int) (p *passResult, err error) {
	s, sz := st.study, st.sz
	p = &passResult{attempted: sz.Runs}
	srv := newCollector(s, collect.StoreAll, true)
	h, err := serve(srv.Handler(), b.handlers())
	if err != nil {
		return nil, err
	}
	po := newPoster(h.url, sz.Batch)
	rd := startReader(h.url)
	defer func() {
		rd.finish()
		err = errors.Join(err, h.close(), srv.Stop())
		po.close()
	}()

	clk := b.startClock()
	fleetDB, err := s.fleet(s.prog, workloads.FleetConfig{
		Runs: sz.Runs, Density: sz.Density, SeedBase: seedBase(st.seed, d),
		Workers: sz.FleetWorkers, Submit: po.submit,
	})
	if err != nil {
		return nil, err
	}
	if err := po.flush(context.Background()); err != nil {
		return nil, err
	}
	rd.finish() // reads are timed under ingest only
	rank, err := fetchRankings(h.url)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stored, check := s.analyze(srv, s, seedBase(st.seed, d), &p.layers)
	p.analyze = time.Since(t0).Seconds()
	clk.stop(p)

	if stored == nil {
		stored = srv.DB()
	}
	p.acked = stored.Len()
	p.readMs = rd.lat
	p.postMs = po.lat
	p.check("stored DB equals the fleet's DB", sameDB(stored, fleetDB))
	p.verdicts = append(p.verdicts, check)
	p.checkRanking(rank, score.Rank(score.Score(stored, s.spans)), s)
	p.check("reader saw no failed read", rd.err)
	if b.traced && d < sz.IsolatePasses {
		p.isolate = isolations(stored, s.spans, s.planted, sz.Orderings, st.seed+int64(d))
	}
	p.layers.addClient(po)
	p.layers.addServer(srv.Registry())
	return p, nil
}

// ccryptAnalysis is §3.2's elimination on the collector's aggregate:
// universal falsehood ∧ successful counterexample, whose survivors must
// include the planted predicate.
func ccryptAnalysis(srv *collect.Server, s *study, _ int64, l *layerSample) (*report.DB, verdict) {
	t0 := time.Now()
	agg := srv.Aggregate()
	survivors := elim.Intersect(elim.UniversalFalsehood(agg), elim.SuccessfulCounterexample(agg))
	l.elim += time.Since(t0).Seconds()
	v := verdict{name: "elimination keeps " + ccryptPlanted}
	for _, c := range elim.Indices(survivors) {
		if s.planted(c) {
			return nil, v
		}
	}
	v.err = fmt.Errorf("%d survivors, planted predicate not among them", elim.Count(survivors))
	return nil, v
}

// bcLambdas is core.RunBCStudy's cross-validation grid.
var bcLambdas = []float64{0.05, 0.1, 0.3, 1.0}

// bcAnalysis is §3.3's offline analysis on the collector's stored
// reports, as core.RunBCStudy runs it: discard never-true counters,
// build the sparse dataset, and cross-validate ℓ1 logistic regression
// over the λ grid. The chosen model must give positive weight to a
// more_arrays predicate.
func bcAnalysis(srv *collect.Server, s *study, fseed int64, l *layerSample) (*report.DB, verdict) {
	t0 := time.Now()
	keep := elim.UniversalFalsehood(srv.Aggregate())
	t1 := time.Now()
	db := srv.DB()
	trainR, cvR, _ := logreg.Split(db.Reports, 0.62, 0.07, fseed+1)
	train := logreg.BuildSparseDataset(trainR, keep)
	cv := train.Project(cvR)
	t2 := time.Now()
	_, model := logreg.CrossValidateSparse(train, cv, bcLambdas,
		logreg.TrainConfig{StepSize: 1e-2, Seed: fseed + 2, Workers: 2})
	t3 := time.Now()
	l.elim += t1.Sub(t0).Seconds()
	l.build += t2.Sub(t1).Seconds()
	l.cv += t3.Sub(t2).Seconds()
	v := verdict{name: "logistic regression weights a more_arrays predicate"}
	for _, f := range model.TopFeatures(5) {
		if s.planted(f.Counter) {
			return db, v
		}
	}
	v.err = fmt.Errorf("no more_arrays predicate among the top 5 of %d nonzero features", model.NonzeroCount())
	return db, v
}

// replayPass replays the set-up fleet's reports from the submitters,
// each through its own batched client into its own edge collector; the
// edges federate into one root that the reader polls. The pass ends
// when every edge's FederateNow has succeeded and the root's ranking and
// elimination are in.
func replayPass(b *bench, st *state, d int) (p *passResult, err error) {
	s, sz := st.study, st.sz
	ht := b.handlers()
	p = &passResult{}
	for _, reps := range st.replay {
		p.attempted += len(reps)
	}

	root := newCollector(s, collect.AggregateOnly, true)
	root.AcceptMerges = true
	rh, err := serve(root.Handler(), ht)
	if err != nil {
		return nil, err
	}
	var edges []*collect.Server
	var ehs []*served
	var posters []*poster
	var rd *reader
	defer func() {
		if rd != nil {
			rd.finish()
		}
		// Edges stop first: their final flush still reaches the root.
		for i, e := range edges {
			err = errors.Join(err, ehs[i].close(), e.Stop())
		}
		for _, po := range posters {
			po.close()
		}
		err = errors.Join(err, rh.close(), root.Stop())
	}()
	for k := 0; k < sz.Submitters; k++ {
		e := newCollector(s, collect.StoreAll, false)
		e.Federation = &collect.Federation{
			Parent: rh.url, EdgeID: fmt.Sprintf("edge-%d", k), Interval: 200 * time.Millisecond,
		}
		eh, err := serve(e.Handler(), ht)
		if err != nil {
			e.Stop()
			return nil, err
		}
		edges = append(edges, e)
		ehs = append(ehs, eh)
		posters = append(posters, newPoster(eh.url, sz.Batch))
	}
	rd = startReader(rh.url)

	clk := b.startClock()
	errs := make([]error, len(posters))
	var wg sync.WaitGroup
	for k, po := range posters {
		wg.Add(1)
		go func(k int, po *poster) {
			defer wg.Done()
			ctx := context.Background()
			for _, rep := range st.replay[k] {
				if err := po.submit(ctx, rep); err != nil {
					errs[k] = err
					return
				}
			}
			errs[k] = po.flush(ctx)
		}(k, po)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	fedErrs := make([]error, len(edges))
	for k, e := range edges {
		t0 := time.Now()
		fedErrs[k] = e.FederateNow()
		p.layers.flush += time.Since(t0).Seconds()
	}
	rd.finish()
	rank, err := fetchRankings(rh.url)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	agg := root.Aggregate()
	survivors := elim.Intersect(elim.UniversalFalsehood(agg), elim.SuccessfulCounterexample(agg))
	p.analyze = time.Since(t0).Seconds()
	p.layers.elim += p.analyze
	clk.stop(p)

	st.replayOnce.Do(func() {
		all := &report.DB{Program: s.name, NumCounters: s.prog.NumCounters}
		for _, reps := range st.replay {
			all.Reports = append(all.Reports, reps...)
		}
		st.replayAgg = report.NewAggregate(s.name, s.prog.NumCounters)
		st.replayErr = st.replayAgg.FromDB(all)
		st.replayRank = score.Rank(score.Score(all, s.spans))
	})
	if st.replayErr != nil {
		return nil, fmt.Errorf("serial fold of the replayed reports: %w", st.replayErr)
	}
	p.acked = agg.Runs
	p.readMs = rd.lat
	for _, po := range posters {
		p.postMs = append(p.postMs, po.lat...)
		p.layers.addClient(po)
	}
	p.check("every edge's FederateNow succeeded", errors.Join(fedErrs...))
	p.check("root aggregate equals a serial fold of every acknowledged report",
		sameAggregate(agg, st.replayAgg))
	p.checkCount("root rejected no merge", root.Registry().Counter("collect_merge_rejected_total").Value())
	var pushFailures uint64
	for _, e := range edges {
		pushFailures += e.Registry().Counter("collect_merge_push_failures_total").Value()
	}
	p.checkCount("no edge push failed", pushFailures)
	p.checkRanking(rank, st.replayRank, s)
	var elimErr error
	if elim.Count(survivors) == 0 {
		elimErr = errors.New("no survivors")
	}
	p.check("elimination on the root aggregate keeps a predicate", elimErr)
	p.check("reader saw no failed read", rd.err)
	if b.traced && d < sz.IsolatePasses {
		stored := &report.DB{Program: s.name, NumCounters: s.prog.NumCounters}
		for _, e := range edges {
			stored.Reports = append(stored.Reports, e.DB().Reports...)
		}
		sortByRunID(stored)
		p.isolate = isolations(stored, s.spans, s.planted, sz.Orderings, st.seed+int64(d))
	}
	for _, e := range edges {
		p.layers.addServer(e.Registry())
	}
	p.layers.addServer(root.Registry())
	p.layers.fedRejected += root.Registry().Counter("collect_merge_rejected_total").Value()
	p.layers.pushFailures += pushFailures
	return p, nil
}

func sameAggregate(got, want *report.Aggregate) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("got %d runs / %d crashes, want %d / %d (or counters differ)",
			got.Runs, got.Crashes, want.Runs, want.Crashes)
	}
	return nil
}

// sameDB compares two report databases report for report, on every
// field a report carries over the wire.
func sameDB(got, want *report.DB) error {
	if got.Program != want.Program || got.NumCounters != want.NumCounters || got.Len() != want.Len() {
		return fmt.Errorf("got %s/%d counters/%d reports, want %s/%d/%d",
			got.Program, got.NumCounters, got.Len(), want.Program, want.NumCounters, want.Len())
	}
	for i, g := range got.Reports {
		w := want.Reports[i]
		if g.RunID != w.RunID || g.Program != w.Program || g.Crashed != w.Crashed ||
			g.TrapKind != w.TrapKind || g.ExitCode != w.ExitCode ||
			!reflect.DeepEqual(g.Counters, w.Counters) || !equalTrace(g.Trace, w.Trace) {
			return fmt.Errorf("report %d (run %d) differs", i, w.RunID)
		}
	}
	return nil
}

// equalTrace treats nil and empty traces alike: the codec does not
// distinguish them.
func equalTrace(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
