package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/workload"
)

// spec is one benchmark workload. A run repeats rounds of the spec
// until its timed phases add up to the requested seconds; every round
// builds a fresh system, so the state the brokers retain (they keep
// every record by design) is bounded by one round and rounds are
// comparable with each other.
type spec struct {
	name    string
	clients int
	queries int
	s       float64
	// window and slide are in epochs; an epoch is one second of event
	// time.
	window, slide int
	epochs        int // per round
	// warm leading epochs of each round are run and checked but not
	// timed: they fill the estimator's memoized accuracy-loss cache,
	// which a long-running aggregator has warm.
	warm int
	// multi registers the queries through the control plane (registry →
	// proxies' control topics → clients) instead of subscribing the
	// clients directly.
	multi bool
	// deploy builds the networked topology: durable brokers served over
	// loopback TCP, batched client flushes, an aggregator polling over
	// TCP, and a broker restart from the WALs at the end of each round.
	deploy bool
}

var specs = map[string]spec{
	"fleet":   {name: "fleet", clients: 4000, queries: 1, s: 1, window: 5, slide: 1, epochs: 35, warm: 5},
	"queries": {name: "queries", clients: 100, queries: 16, s: 0.5, window: 1, slide: 1, epochs: 120, warm: 20, multi: true},
	"deploy":  {name: "deploy", clients: 4000, queries: 1, s: 1, window: 5, slide: 1, epochs: 35, warm: 5, multi: true, deploy: true},
}

const (
	proxies    = 2
	partitions = 4
	rides      = 3 // taxi rides per client database
)

var (
	origin = time.Unix(1_700_000_000, 0) // core.Config's default epoch zero
	freq   = time.Second
)

func (sp spec) params() budget.Params {
	return budget.Params{S: sp.s, RR: rr.Params{P: 0.9, Q: 0.6}}
}

// buildQueries returns the workload's taxi queries, serials 1..n.
func (sp spec) buildQueries() ([]*query.Query, error) {
	out := make([]*query.Query, sp.queries)
	for i := range out {
		q, err := workload.TaxiQuery("bench", uint64(i+1), freq,
			time.Duration(sp.window)*freq, time.Duration(sp.slide)*freq)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// roundSeed derives round r's system seed from the run seed. It is
// never 0, which core.Config reads as "draw a random seed".
func roundSeed(seed int64, r int) int64 {
	s := seed*1000 + int64(r) + 1
	if s == 0 {
		s = 1
	}
	return s
}

// populate fills client i's database with taxi rides drawn from the
// round seed.
func populate(seed int64, i int, db *minisql.DB) error {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	return workload.PopulateTaxi(db, rng, rides, time.Unix(0, 0), time.Minute)
}

// analystKey is the benchmark analyst's deterministic signing key.
func analystKey() ed25519.PrivateKey {
	seed := sha256.Sum256([]byte("perfbench analyst"))
	return ed25519.NewKeyFromSeed(seed[:])
}

// clientID matches the identity core.New gives client i.
func clientID(i int) string { return fmt.Sprintf("client-%06d", i) }

// round is the outcome of one round: what the untraced metrics and the
// correctness checks are computed from.
type round struct {
	results   []aggregator.Result // every fired window, in emission order
	epochMs   []float64           // wall time per timed epoch
	latencyMs []float64           // window latencies of windows fired inside the epoch loop

	sent    int64 // answers the clients sent
	decoded int64
	dropped int64

	setup   time.Duration
	restart time.Duration
	timed   procDelta
}

// collect records the windows one epoch step returned at time at; each
// window's latency runs from the start of the last epoch it covers.
// Only windows fired by a timed epoch (epoch ≥ warm) get a latency.
func (r *round) collect(res []aggregator.Result, epoch, warm int, at time.Time, epochStart []time.Time) {
	for _, w := range res {
		r.results = append(r.results, w)
		if epoch < warm {
			continue
		}
		_, last := coveredEpochs(w, len(epochStart))
		if last >= 0 && last < len(epochStart) {
			r.latencyMs = append(r.latencyMs, float64(at.Sub(epochStart[last]))/1e6)
		}
	}
}

// coveredEpochs returns the first and last epoch of [0, epochs) whose
// event time falls in the window (first > last when none does).
func coveredEpochs(w aggregator.Result, epochs int) (first, last int) {
	first = max(ceilDiv(w.Window.Start.Sub(origin), freq), 0)
	last = min(ceilDiv(w.Window.End.Sub(origin), freq)-1, epochs-1)
	return first, last
}

// ceilDiv is ⌈a/b⌉ for b > 0, negative a included.
func ceilDiv(a, b time.Duration) int {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return int(q)
}

func (r *round) digest() [32]byte {
	return sha256.Sum256(aggregator.AppendResults(nil, r.results))
}

// check verifies the round's outputs: every answer sent was decoded
// and nothing was dropped; per query, every window's Responses equals
// the answers the clients sent in the epochs it covers; and every
// epoch is covered by exactly window/slide fired windows. Who answers
// is recomputed from the clients' participation coins, which are a
// pure function of (s, query, client, epoch).
func (r *round) check(sp spec, queries []*query.Query) error {
	if r.decoded != r.sent || r.dropped != 0 {
		return fmt.Errorf("accounting: %d answers sent, %d decoded, %d dropped", r.sent, r.decoded, r.dropped)
	}
	ids := make([]string, sp.clients)
	for i := range ids {
		ids[i] = clientID(i)
	}
	want := make(map[query.ID][]int64, len(queries))
	var total int64
	for _, q := range queries {
		d, err := sampling.NewHashDecider(sp.s, q.QID.Uint64())
		if err != nil {
			return err
		}
		per := make([]int64, sp.epochs)
		for e := range per {
			for _, id := range ids {
				if d.Participate(id, uint64(e)) {
					per[e]++
				}
			}
			total += per[e]
		}
		want[q.QID] = per
	}
	if total != r.sent {
		return fmt.Errorf("participation: clients sent %d answers, coins say %d", r.sent, total)
	}
	cover := make(map[query.ID][]int, len(queries))
	seen := make(map[string]bool)
	for _, w := range r.results {
		per, ok := want[w.Query]
		if !ok {
			return fmt.Errorf("window of unknown query %s", w.Query)
		}
		key := fmt.Sprintf("%s@%d", w.Query, w.Window.Start.UnixNano())
		if seen[key] {
			return fmt.Errorf("window %s fired twice", key)
		}
		seen[key] = true
		first, last := coveredEpochs(w, sp.epochs)
		var exp int64
		for e := first; e <= last; e++ {
			exp += per[e]
			if cover[w.Query] == nil {
				cover[w.Query] = make([]int, sp.epochs)
			}
			cover[w.Query][e]++
		}
		if int64(w.Responses) != exp {
			return fmt.Errorf("window %s: %d responses, clients sent %d", key, w.Responses, exp)
		}
	}
	for _, q := range queries {
		for e, n := range cover[q.QID] {
			if n != sp.window/sp.slide && want[q.QID][e] > 0 {
				return fmt.Errorf("query %s epoch %d: in %d fired windows, want %d", q.QID, e, n, sp.window/sp.slide)
			}
		}
		if len(cover[q.QID]) == 0 && sp.epochs > 0 {
			return fmt.Errorf("query %s fired no window", q.QID)
		}
	}
	return nil
}
