package aggregator

import (
	"fmt"
	"testing"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/stream"
)

// warmEstimator builds an 11-bucket aggregator and an accumulator
// holding n responses spread over the buckets, and fires one estimate
// so the estimator's memos (RR-loss simulations, Student-t critical
// values) are warm: what remains is the steady-state cost of firing a
// window.
func warmEstimator(tb testing.TB, n int) (*Aggregator, *queryState, *answer.Accumulator, stream.Window) {
	tb.Helper()
	const nbuckets = 11
	params := budget.Params{S: 0.5, RR: rr.Params{P: 0.9, Q: 0.6}}
	a, err := New(testConfig(tb, nbuckets, params, 2*n))
	if err != nil {
		tb.Fatal(err)
	}
	st := a.states.Load().single
	acc, err := answer.NewAccumulator(nbuckets)
	if err != nil {
		tb.Fatal(err)
	}
	yes := make([]int, nbuckets)
	for i := range yes {
		yes[i] = n * (i + 1) / (2 * nbuckets) // 4.5% … 50% observed yes
	}
	if err := acc.AddCounts(yes, n); err != nil {
		tb.Fatal(err)
	}
	w := stream.Window{Start: testOrigin, End: testOrigin.Add(st.q.Window)}
	if _, err := a.estimate(st, w, acc); err != nil {
		tb.Fatal(err)
	}
	return a, st, acc, w
}

// TestEstimateWindowAllocs pins a warm 11-bucket estimate at one
// allocation — the result's Buckets slice. Labels are rendered at
// registration, the moments stay on the stack, and the critical value
// is a memo hit.
func TestEstimateWindowAllocs(t *testing.T) {
	a, st, acc, w := warmEstimator(t, 50)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.estimate(st, w, acc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm 11-bucket estimate: %v allocs/op, want 1", allocs)
	}
}

// BenchmarkEstimateWindow measures the estimator kernel of a window
// fire — RR correction, SRS scale-up and margin for 11 buckets — at a
// small and a large window.
func BenchmarkEstimateWindow(b *testing.B) {
	for _, n := range []int{50, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, st, acc, w := warmEstimator(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.estimate(st, w, acc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
