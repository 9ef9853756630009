package stream_test

// The watermark and window firing run in the aggregator (see the
// package comment), on top of this package's SlidingAssigner. These
// tests pin those semantics end to end through the aggregator's public
// API: one bucket-0 answer message per call, its event time Origin +
// epoch seconds; with s = 1, p = 1 a window's bucket-0 observed count is
// exactly the answers it holds.

import (
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

var origin = time.Unix(1_700_000_000, 0)

func at(s int) time.Time { return origin.Add(time.Duration(s) * time.Second) }

// windowed is one single-query aggregator with 1-second epochs.
type windowed struct {
	t   *testing.T
	a   *aggregator.Aggregator
	sp  *xorcrypt.Splitter
	qid uint64
}

func newWindowed(t *testing.T, window, slide, lateness time.Duration) *windowed {
	t.Helper()
	buckets, err := query.UniformRanges(0, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		QID:       query.ID{Analyst: "a", Serial: 1},
		SQL:       "SELECT v FROM t",
		Buckets:   buckets,
		Frequency: time.Second,
		Window:    window,
		Slide:     slide,
	}
	a, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}},
		Population: 100,
		Proxies:    2,
		Origin:     origin,
		Lateness:   lateness,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &windowed{t: t, a: a, sp: sp, qid: q.QID.Uint64()}
}

// submit splits one bucket-0 answer for epoch and submits its shares,
// returning the windows that fired.
func (w *windowed) submit(epoch uint64) []aggregator.Result {
	w.t.Helper()
	vec, err := answer.OneHot(2, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	msg := answer.Message{QueryID: w.qid, Epoch: epoch, Answer: vec}
	raw, err := msg.MarshalBinary()
	if err != nil {
		w.t.Fatal(err)
	}
	shares, err := w.sp.Split(raw)
	if err != nil {
		w.t.Fatal(err)
	}
	var fired []aggregator.Result
	for src, sh := range shares {
		res, err := w.a.SubmitShare(sh, src, time.Now())
		if err != nil {
			w.t.Fatal(err)
		}
		fired = append(fired, res...)
	}
	return fired
}

func (w *windowed) advanceTo(tm time.Time) []aggregator.Result {
	w.t.Helper()
	res, err := w.a.AdvanceTo(tm)
	if err != nil {
		w.t.Fatal(err)
	}
	return res
}

func count(r aggregator.Result) int { return r.Buckets[0].ObservedYes }

func TestWatermarkTracker(t *testing.T) {
	w := newWindowed(t, 20*time.Second, 20*time.Second, 2*time.Second)
	// Nothing is late before the first event, however old.
	w.submit(0)
	if got := w.a.Dropped(); got != 0 {
		t.Fatalf("first event dropped: Dropped = %d", got)
	}
	// Max event time 10s, lateness 2s: watermark 8s.
	w.submit(10)
	w.submit(7)
	if got := w.a.Dropped(); got != 1 {
		t.Fatalf("t=7 behind watermark 8: Dropped = %d, want 1", got)
	}
	w.submit(9)
	w.submit(8)
	if got := w.a.Dropped(); got != 1 {
		t.Fatalf("t=8, t=9 within lateness: Dropped = %d, want 1", got)
	}
	// The older on-time observations above did not pull the watermark
	// back: t=7 is still late.
	w.submit(7)
	if got := w.a.Dropped(); got != 2 {
		t.Fatalf("watermark regressed: Dropped = %d, want 2", got)
	}
	// Watermark 8s + 12s = 20s closes [0s, 20s) with the four on-time answers.
	res := w.advanceTo(at(22))
	if len(res) != 1 || res[0].Responses != 4 {
		t.Fatalf("AdvanceTo(22s) fired %+v, want one window with 4 responses", res)
	}
}

func TestWindowedOpFiresOnWatermark(t *testing.T) {
	w := newWindowed(t, 10*time.Second, 10*time.Second, time.Second)
	// Three answers inside [0s, 10s).
	for _, e := range []uint64{0, 2, 4} {
		if res := w.submit(e); len(res) != 0 {
			t.Fatalf("premature fire: %+v", res)
		}
	}
	// Watermark 9s: the window's End is still ahead of it.
	if res := w.submit(10); len(res) != 0 {
		t.Fatalf("fired at watermark 9s: %+v", res)
	}
	// An answer at 11s moves the watermark to exactly 10s = End.
	res := w.submit(11)
	if len(res) != 1 {
		t.Fatalf("fired %d windows, want 1", len(res))
	}
	if !res[0].Window.Start.Equal(at(0)) || !res[0].Window.End.Equal(at(10)) {
		t.Errorf("window = %v", res[0].Window)
	}
	if res[0].Responses != 3 || count(res[0]) != 3 {
		t.Errorf("responses = %d, count = %v; want 3, 3", res[0].Responses, count(res[0]))
	}
}

func TestWindowedOpSlidingDoubleCount(t *testing.T) {
	// 4s windows sliding every 2s: an answer lands in 2 windows.
	w := newWindowed(t, 4*time.Second, 2*time.Second, 0)
	w.submit(5)
	results, err := w.a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("flush fired %d windows, want 2", len(results))
	}
	for i, start := range []int{2, 4} {
		r := results[i]
		if !r.Window.Start.Equal(at(start)) {
			t.Errorf("window %d = %v, want start %ds", i, r.Window, start)
		}
		if r.Responses != 1 || count(r) != 1 {
			t.Errorf("window %v responses = %d, count = %v", r.Window, r.Responses, count(r))
		}
	}
}

func TestWindowedOpDropsLate(t *testing.T) {
	w := newWindowed(t, 10*time.Second, 10*time.Second, time.Second)
	w.submit(100)
	w.submit(50) // far behind watermark 99s
	if got := w.a.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	// The dropped answer opened no window and counts nowhere.
	if got := w.a.OpenWindows(); got != 1 {
		t.Errorf("open = %d, want 1", got)
	}
	res := w.advanceTo(at(200))
	if len(res) != 1 || !res[0].Window.Start.Equal(at(100)) || res[0].Responses != 1 {
		t.Errorf("AdvanceTo fired %+v, want [100s,110s) with 1 response", res)
	}
}

func TestWindowedOpAdvanceTo(t *testing.T) {
	// Lateness 0 defaults to one slide (10s).
	w := newWindowed(t, 10*time.Second, 10*time.Second, 0)
	w.submit(3)
	if got := w.a.OpenWindows(); got != 1 {
		t.Fatalf("open = %d", got)
	}
	// Idle-source progress: watermark 19s leaves [0s, 10s) open.
	if res := w.advanceTo(at(19)); len(res) != 0 {
		t.Fatalf("AdvanceTo(19s) fired %+v", res)
	}
	res := w.advanceTo(at(20))
	if len(res) != 1 || res[0].Responses != 1 || count(res[0]) != 1 {
		t.Errorf("AdvanceTo(20s) fired %+v", res)
	}
	if got := w.a.OpenWindows(); got != 0 {
		t.Errorf("open after fire = %d", got)
	}
}
