package core

import (
	"testing"

	"privapprox/internal/budget"
	"privapprox/internal/rr"
)

// An epoch's shares reach each proxy as one batched publish (more only
// past the producer's frame cap), not as one publish per share: the
// in-process clients flush through per-proxy batchers, as the node's
// client processes do.
func TestEpochPublishesOneBatchPerProxy(t *testing.T) {
	const (
		clients  = 200
		frameCap = 8 << 20 // pubsub's per-frame batch cap (maxBatchBytes)
	)
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	sys, err := New(taxiSystemConfig(t, clients, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hist := sys.Telemetry().Histogram("privapprox_publish_ns")
	for epoch := 0; epoch < 2; epoch++ {
		calls0, bytes0 := hist.Count(), sys.Fleet().TotalStats().BytesIn
		_, participants, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if participants != clients {
			t.Fatalf("epoch %d: %d participants, want %d", epoch, participants, clients)
		}
		calls := hist.Count() - calls0
		bytes := sys.Fleet().TotalStats().BytesIn - bytes0
		proxies := int64(sys.Fleet().Size())
		bound := proxies * ((bytes + frameCap - 1) / frameCap)
		if calls == 0 || calls > bound {
			t.Errorf("epoch %d: %d publish calls for %d shares (%d bytes), want 1..%d",
				epoch, calls, proxies*clients, bytes, bound)
		}
	}
}

// Shares answered outside RunEpoch wait in the batchers; Flush
// publishes them before its final drain, so none are lost.
func TestFlushPublishesBatchedShares(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const clients = 12
	sys, err := New(taxiSystemConfig(t, clients, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, c := range sys.Clients() {
		if _, err := c.AnswerOnce(0); err != nil {
			t.Fatal(err)
		}
	}
	if in := sys.Fleet().TotalStats().MessagesIn; in != 0 {
		t.Fatalf("%d shares published before any flush, want 0", in)
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Responses != clients {
		t.Fatalf("results = %+v, want one window with %d responses", results, clients)
	}
}
