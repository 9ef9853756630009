package main

import "testing"

func TestCoveredCountsOverlapOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {50, 70}}, 30},
		{"parallel workers overlap", 0, 100, [][2]int64{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"clipped to the parent", 0, 100, [][2]int64{{-20, 10}, {90, 130}}, 20},
		{"touching", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},
		{"outside", 0, 100, [][2]int64{{100, 150}}, 0},
	} {
		if got := covered(tc.lo, tc.hi, tc.ivs); got != tc.want {
			t.Errorf("%s: covered %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "epoch", Start: 0, End: 100, Parent: -1},
		{Name: "answer", Start: 5, End: 60, Parent: 0},
		{Name: "client.answer", Start: 6, End: 58, Parent: 1, Worker: 0},
		{Name: "client.answer", Start: 7, End: 59, Parent: 1, Worker: 1},
		{Name: "drain", Start: 62, End: 98, Parent: 0},
	}
	got := selfTimes(spans)
	// epoch: 100 − (55 + 36); answer: 55 − |[6,59)|; the leaves own all
	// their time.
	want := []int64{9, 2, 52, 52, 36}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestAccFoldsCallsIntoOneSpan(t *testing.T) {
	tr := &tracer{}
	var a acc
	a.add(10, 15, 2)
	a.add(3, 4, 2)
	a.add(20, 30, 2)
	i := tr.fold("proxy.submit", -1, 7, 1, &a)
	s := tr.spans[i]
	if s.Start != 3 || s.End != 30 || s.Busy != 16 || s.Count != 6 || s.Calls != 3 || s.Epoch != 7 || s.Worker != 1 {
		t.Fatalf("folded span %+v", s)
	}
	var empty acc
	if tr.fold("x", -1, 0, 0, &empty) != -1 || len(tr.spans) != 1 {
		t.Fatal("an empty accumulator must not make a span")
	}
}

func TestTotalsSkipWarmEpochs(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "epoch", Start: 0, End: 10, Parent: -1, Epoch: 0, Count: 1, Busy: 10},
		{Name: "epoch", Start: 10, End: 30, Parent: -1, Epoch: 1, Count: 1, Busy: 20},
		{Name: "restart", Start: 40, End: 45, Parent: -1, Epoch: -1, Count: 1, Busy: 5},
	}}
	got := tr.totals(1)
	if e := got["epoch"]; e == nil || e.wall != 20 || e.spans != 1 {
		t.Errorf("epoch totals %+v", e)
	}
	if r := got["restart"]; r == nil || r.wall != 5 {
		t.Errorf("restart totals %+v", r)
	}
}
