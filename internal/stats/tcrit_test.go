package stats

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// len returns the number of memoized entries.
func (c *tMemo) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// tcritGrid is the (alpha, df) grid the memo is checked on: the
// confidence levels the system uses (1−0.95 is spelled the way the
// sampling estimators compute it, one ulp away from 0.05) and every df
// a small window produces, plus a few large ones.
func tcritGrid() (alphas []float64, dfs []int) {
	confidence := 0.95 // a variable: the constant 1 − 0.95 folds to exactly 0.05
	alphas = []float64{0.01, 0.05, 1 - confidence, 0.1}
	for df := 1; df <= 300; df++ {
		dfs = append(dfs, df)
	}
	dfs = append(dfs, 999, 19999, 1_000_000)
	return alphas, dfs
}

// TestTCriticalMemoBitIdentity pins that a memoized critical value is
// the exact float64 the direct quantile computes, on the cold call that
// fills the memo and on the warm call that reads it.
func TestTCriticalMemoBitIdentity(t *testing.T) {
	alphas, dfs := tcritGrid()
	m := newTMemo(tcritMemoCap)
	for _, alpha := range alphas {
		for _, df := range dfs {
			want, err := StudentTQuantile(1-alpha/2, float64(df))
			if err != nil {
				t.Fatal(err)
			}
			for _, call := range []string{"cold", "warm"} {
				got, err := m.get(alpha, df)
				if err != nil {
					t.Fatalf("%s get(%v, %d): %v", call, alpha, df, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s get(%v, %d) = %v, direct = %v", call, alpha, df, got, want)
				}
			}
			got, err := TCritical(alpha, df)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TCritical(%v, %d) = %v, %v; direct = %v", alpha, df, got, err, want)
			}
		}
	}
	if want := len(alphas) * len(dfs); m.len() != want {
		t.Errorf("memo holds %d entries, want %d", m.len(), want)
	}
}

func TestTCriticalMemoRejectsInvalid(t *testing.T) {
	m := newTMemo(16)
	cases := []struct {
		alpha float64
		df    int
	}{
		{0, 5}, {1, 5}, {-0.1, 5}, {1.5, 5},
		{math.NaN(), 5}, {math.Inf(1), 5}, {math.Inf(-1), 5},
		{0.05, 0}, {0.05, -3},
		{1e-300, 5}, // 1 − alpha/2 rounds to 1: the quantile rejects it
	}
	for _, c := range cases {
		if _, err := m.get(c.alpha, c.df); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("get(%v, %d) error = %v, want ErrInvalidParam", c.alpha, c.df, err)
		}
		if _, err := TCritical(c.alpha, c.df); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("TCritical(%v, %d) error = %v, want ErrInvalidParam", c.alpha, c.df, err)
		}
	}
	if n := m.len(); n != 0 {
		t.Errorf("invalid arguments left %d memo entries", n)
	}
}

// TestTCriticalMemoCap pins that a full memo stops growing and keeps
// answering correctly, for stored and unstored keys alike.
func TestTCriticalMemoCap(t *testing.T) {
	const limit = 8
	m := newTMemo(limit)
	for round := 0; round < 2; round++ {
		for df := 1; df <= 3*limit; df++ {
			want, _ := StudentTQuantile(1-0.05/2, float64(df))
			got, err := m.get(0.05, df)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d get(0.05, %d) = %v, %v; want %v", round, df, got, err, want)
			}
			wantLen := limit
			if round == 0 {
				wantLen = min(df, limit)
			}
			if n := m.len(); n != wantLen {
				t.Fatalf("round %d after df=%d: memo holds %d entries (limit %d)", round, df, n, limit)
			}
		}
	}
}

// TestTCriticalMemoConcurrent hammers one memo from many goroutines,
// each mixing keys every goroutine shares with keys of its own, across
// the cap. Run under -race by `make race`.
func TestTCriticalMemoConcurrent(t *testing.T) {
	const (
		goroutines = 8
		shared     = 16
		own        = 8
	)
	m := newTMemo(shared + goroutines*own/2)
	want := func(df int) float64 {
		v, _ := StudentTQuantile(1-0.05/2, float64(df))
		return v
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < shared+own; i++ {
					df := 1 + i
					if i >= shared {
						df = 1000 + g*own + i
					}
					got, err := m.get(0.05, df)
					if err == nil && math.Float64bits(got) != math.Float64bits(want(df)) {
						err = errors.New("memoized value differs from the direct quantile")
					}
					if err == nil {
						_, err = TCritical(0.05, df)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, limit := m.len(), shared+goroutines*own/2; n != limit {
		t.Errorf("memo holds %d entries, want it full at %d", n, limit)
	}
}

// TestTCriticalHitZeroAllocs pins a warm memo hit at 0 allocs/op: the
// estimator asks for the critical value once per bucket of every fired
// window.
func TestTCriticalHitZeroAllocs(t *testing.T) {
	if _, err := TCritical(0.05, 29); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { _, _ = TCritical(0.05, 29) }); avg != 0 {
		t.Errorf("warm TCritical: %v allocs/op, want 0", avg)
	}
}

func BenchmarkTCritical(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		if _, err := TCritical(0.05, 49); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = TCritical(0.05, 49)
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = StudentTQuantile(1-0.05/2, 49)
		}
	})
}
