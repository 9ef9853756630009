package main

import (
	"fmt"
	"runtime"
	"time"

	"privapprox"
	"privapprox/internal/aggregator"
	"privapprox/internal/client"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
)

// systemConfig is the privapprox.NewSystem configuration of an
// in-process workload round.
func systemConfig(sp spec, seed int64, queries []*query.Query) privapprox.SystemConfig {
	params := sp.params()
	cfg := privapprox.SystemConfig{
		Clients:    sp.clients,
		Proxies:    proxies,
		Partitions: partitions,
		Params:     &params,
		Origin:     origin,
		Seed:       seed,
		AnalystKey: analystKey(),
		Workers:    runtime.GOMAXPROCS(0),
		MultiQuery: sp.multi,
		Populate:   func(i int, db *minisql.DB) error { return populate(seed, i, db) },
	}
	if !sp.multi {
		cfg.Query = queries[0]
	}
	return cfg
}

// runSystemRound runs one untraced round of an in-process workload
// through the public entry point: privapprox.NewSystem, RunEpoch back
// to back, Flush. The restart phase rebuilds the aggregator from the
// checkpoint it wrote before the final flush.
func runSystemRound(sp spec, seed int64) (*round, []*query.Query, error) {
	queries, err := sp.buildQueries()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	r := &round{}
	t0 := time.Now()
	sys, err := privapprox.NewSystem(systemConfig(sp, seed, queries))
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	if sp.multi {
		for _, q := range queries {
			if err := sys.Register(q); err != nil {
				return nil, nil, err
			}
		}
	}
	r.setup = time.Since(t0)

	starts := make([]time.Time, sp.epochs)
	var p0 procSample
	for e := range starts {
		if e == sp.warm {
			p0 = sampleProc()
		}
		starts[e] = time.Now()
		res, _, err := sys.RunEpoch()
		at := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		if e >= sp.warm {
			r.epochMs = append(r.epochMs, float64(at.Sub(starts[e]))/1e6)
		}
		r.collect(res, e, sp.warm, at, starts)
	}
	p1 := sampleProc()
	r.timed.add(p0, p1)
	ckpt, err := sys.Aggregator().Checkpoint(nil)
	if err != nil {
		return nil, nil, err
	}
	p2 := sampleProc()
	final, err := sys.Flush()
	if err != nil {
		return nil, nil, err
	}
	r.timed.add(p2, sampleProc())
	r.collect(final, -1, sp.warm, time.Time{}, starts)

	r.sent = client.SumStats(sys.Clients()).AnswersSent
	st := sys.Aggregator().Stats()
	r.decoded, r.dropped = st.Decoded, st.Dropped()

	// An aggregator restart takes tens of milliseconds here, so it is
	// repeated and the round keeps the median.
	var restarts []float64
	for range restartRepeats {
		t1 := time.Now()
		if _, err := restoreAggregator(sp, seed, queries, ckpt); err != nil {
			return nil, nil, err
		}
		restarts = append(restarts, float64(time.Since(t1)))
	}
	r.restart = time.Duration(median(restarts))
	return r, queries, nil
}

// restartRepeats is how often an in-process round restarts its
// aggregator.
const restartRepeats = 3

// newAggregator builds the aggregator core.New builds for the workload,
// with every query registered in order.
func newAggregator(sp spec, seed int64, queries []*query.Query) (*aggregator.Aggregator, error) {
	agg, err := aggregator.NewMulti(aggregator.Config{
		Params:     sp.params(),
		Population: sp.clients,
		Proxies:    proxies,
		Origin:     origin,
		Seed:       seed + 1,
	})
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if err := agg.AddQuery(aggregator.QuerySpec{Query: q, Params: sp.params()}); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// restoreAggregator is a restarted aggregator process: a fresh
// aggregator with the same queries, rebuilt from a checkpoint.
func restoreAggregator(sp spec, seed int64, queries []*query.Query, ckpt []byte) (*aggregator.Aggregator, error) {
	agg, err := newAggregator(sp, seed, queries)
	if err != nil {
		return nil, err
	}
	if err := agg.Restore(ckpt); err != nil {
		return nil, fmt.Errorf("restore aggregator: %w", err)
	}
	return agg, nil
}
