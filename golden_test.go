package privapprox

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/query"
)

// goldenResultsDigest is the SHA-256 of aggregator.AppendResults over
// every window fired by goldenRun. It pins every estimate, margin and
// label bit the estimator produces: a change to the Student-t critical
// value, the RR correction, the sampling scale-up or the bucket labels
// — including a "faster" quantile that differs in the last ulp —
// changes the digest.
const goldenResultsDigest = "548a1ff017fe18a902a7589e692fcfddccd6977a8500bbccad3bb28e5b3ca096"

// goldenRun drives a small seeded multi-query system: three tumbling
// taxi queries and one sliding one at s = 0.5, plus a sparse query at
// s = 0.03 whose windows sometimes hold a single response (the n = 1
// path with its +Inf margin).
func goldenRun(t *testing.T) []Result {
	t.Helper()
	seed := sha256.Sum256([]byte("golden analyst"))
	key := ed25519.NewKeyFromSeed(seed[:])
	params := Params{S: 0.5, RR: RRParams{P: 0.9, Q: 0.6}}
	sys, err := NewSystem(SystemConfig{
		Clients:    60,
		Proxies:    2,
		Params:     &params,
		Seed:       4242,
		AnalystKey: key,
		MultiQuery: true,
		Populate: func(i int, db *DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 7))
			return PopulateTaxi(db, rng, 3, time.Unix(0, 0), time.Minute)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 4; i++ {
		window := time.Second
		if i == 3 {
			window = 3 * time.Second // sliding: 3-epoch window, 1-epoch slide
		}
		q, err := TaxiQuery("golden", uint64(i+1), time.Second, window, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	sparseSeed := sha256.Sum256([]byte("golden sparse analyst"))
	sparseKey := ed25519.NewKeyFromSeed(sparseSeed[:])
	sq, err := TaxiQuery("sparse", 1, time.Second, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := query.Sign(sq, sparseKey)
	if err != nil {
		t.Fatal(err)
	}
	sparse := Params{S: 0.03, RR: params.RR}
	if err := sys.RegisterSigned(signed, sparseKey.Public().(ed25519.PublicKey), sparse); err != nil {
		t.Fatal(err)
	}
	var all []Result
	for e := 0; e < 12; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(all, final...)
}

// TestGoldenResultsDigest is the estimator's bit-identity regression
// gate: the fired windows of goldenRun must hash to the recorded digest.
func TestGoldenResultsDigest(t *testing.T) {
	results := goldenRun(t)
	var single, sliding int
	for _, r := range results {
		if r.Responses == 1 {
			single++
			for _, b := range r.Buckets {
				if !math.IsInf(b.Estimate.Margin, 1) {
					t.Fatalf("n = 1 window %v: bucket %q margin %v, want +Inf", r.Window, b.Label, b.Estimate.Margin)
				}
			}
		}
		if r.Window.End.Sub(r.Window.Start) > time.Second {
			sliding++
		}
	}
	if single == 0 || sliding == 0 {
		t.Fatalf("run covers %d n = 1 windows and %d sliding windows; want both > 0", single, sliding)
	}
	sum := sha256.Sum256(aggregator.AppendResults(nil, results))
	if got := hex.EncodeToString(sum[:]); got != goldenResultsDigest {
		t.Errorf("AppendResults digest over %d windows = %s, want %s", len(results), got, goldenResultsDigest)
	}
}
