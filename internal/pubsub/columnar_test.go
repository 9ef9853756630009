package pubsub

import (
	"bytes"
	"errors"
	"testing"
)

// colMsgs builds count uniform-stride messages with distinct keys and
// values for columnar tests.
func colMsgs(count, keyLen, valLen int) []Message {
	msgs := make([]Message, count)
	for i := range msgs {
		key := make([]byte, keyLen)
		val := make([]byte, valLen)
		for j := range key {
			key[j] = byte(i*31 + j)
		}
		for j := range val {
			val[j] = byte(i*17 + j + 1)
		}
		msgs[i] = Message{Key: key, Value: val}
	}
	return msgs
}

// fetchAll drains every partition of a broker topic.
func fetchAll(t *testing.T, b *Broker, topic string) [][]Record {
	t.Helper()
	n, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Record, n)
	for p := 0; p < n; p++ {
		recs, err := b.Fetch(topic, p, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = recs
	}
	return out
}

// sameRecords compares two per-partition record sets on key, value,
// partition, and offset (timestamps differ across publishes).
func sameRecords(t *testing.T, got, want [][]Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition counts diverge: %d vs %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d: %d records vs %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			g, w := got[p][i], want[p][i]
			if !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) ||
				g.Partition != w.Partition || g.Offset != w.Offset {
				t.Fatalf("partition %d record %d: %+v vs %+v", p, i, g, w)
			}
		}
	}
}

// TestBrokerPublishColumnsMatchesPublishBatch: the columnar publish must
// be observationally identical to the row publish — same routing, same
// per-record results, same stored records.
func TestBrokerPublishColumnsMatchesPublishBatch(t *testing.T) {
	msgs := colMsgs(23, 16, 21)
	cols, err := appendColumns(msgs)
	if err != nil {
		t.Fatal(err)
	}

	rowB := newTestBroker(t, "answers")
	colB := newTestBroker(t, "answers")
	rowRes, err := rowB.PublishBatch("answers", msgs)
	if err != nil {
		t.Fatal(err)
	}
	colRes, err := colB.PublishColumns("answers", cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowRes) != len(colRes) {
		t.Fatalf("result counts diverge: %d vs %d", len(rowRes), len(colRes))
	}
	for i := range rowRes {
		if rowRes[i] != colRes[i] {
			t.Fatalf("record %d landed at %+v columnar vs %+v row", i, colRes[i], rowRes[i])
		}
	}
	sameRecords(t, fetchAll(t, colB, "answers"), fetchAll(t, rowB, "answers"))

	// Records fetched from the columnar path must be deep copies: mutating
	// them cannot corrupt the shared lane copy backing sibling records.
	recs := fetchAll(t, colB, "answers")
	for _, p := range recs {
		for i := range p {
			for j := range p[i].Value {
				p[i].Value[j] = 0xee
			}
		}
	}
	sameRecords(t, fetchAll(t, colB, "answers"), fetchAll(t, rowB, "answers"))
}

// TestBrokerPublishColumnsAllOrNothing: a columnar batch overflowing any
// target partition is refused whole — no partial append, full rejection
// accounting.
func TestBrokerPublishColumnsAllOrNothing(t *testing.T) {
	b := newTestBroker(t, "answers")
	if err := b.SetTopicCapacity("answers", 4); err != nil {
		t.Fatal(err)
	}
	msgs := colMsgs(30, 8, 8)
	cols, err := appendColumns(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishColumns("answers", cols); !errors.Is(err, ErrPartitionFull) {
		t.Fatalf("oversized batch: %v", err)
	}
	for p, recs := range fetchAll(t, b, "answers") {
		if len(recs) != 0 {
			t.Fatalf("partition %d holds %d records after refused batch", p, len(recs))
		}
	}
	small, err := appendColumns(msgs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishColumns("answers", small); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsValidate: lane geometry checks.
func TestColumnsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cols Columns
		ok   bool
	}{
		{"empty", Columns{}, true},
		{"valid", Columns{Count: 2, KeyLen: 1, ValLen: 2, Keys: []byte{1, 2}, Vals: []byte{1, 2, 3, 4}}, true},
		{"negative count", Columns{Count: -1}, false},
		{"zero key stride", Columns{Count: 1, ValLen: 1, Vals: []byte{1}}, false},
		{"zero val stride", Columns{Count: 1, KeyLen: 1, Keys: []byte{1}}, false},
		{"short key lane", Columns{Count: 2, KeyLen: 2, ValLen: 1, Keys: []byte{1}, Vals: []byte{1, 2}}, false},
		{"long val lane", Columns{Count: 1, KeyLen: 1, ValLen: 1, Keys: []byte{1}, Vals: []byte{1, 2}}, false},
	} {
		err := tc.cols.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrWire) {
			t.Errorf("%s: err=%v", tc.name, err)
		}
	}
}

// TestAppendColumnsMixedStride: the lane builder enforces the uniform
// stride columns require — a mixed-size batch is rejected before it can
// reach the wire.
func TestAppendColumnsMixedStride(t *testing.T) {
	msgs := colMsgs(3, 4, 4)
	msgs[2].Value = msgs[2].Value[:3]
	if _, err := appendColumns(msgs); !errors.Is(err, ErrWire) {
		t.Fatalf("mixed value stride: %v", err)
	}
	msgs = colMsgs(3, 4, 4)
	msgs[1].Key = append(msgs[1].Key, 9)
	if _, err := appendColumns(msgs); !errors.Is(err, ErrWire) {
		t.Fatalf("mixed key stride: %v", err)
	}
	cols, err := appendColumns(nil)
	if err != nil || cols.Count != 0 {
		t.Fatalf("empty batch: %+v, %v", cols, err)
	}
}

// TestClientPublishColumnsTCP: the columnar frame end-to-end — the
// records a consumer sees are identical to the row-oriented path
// against a separate broker.
func TestClientPublishColumnsTCP(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("answers", 4); err != nil {
		t.Fatal(err)
	}
	msgs := colMsgs(19, 16, 22)
	cols, err := appendColumns(msgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.PublishColumns("answers", cols)
	if err != nil {
		t.Fatal(err)
	}

	refB := newTestBroker(t, "answers")
	refRes, err := refB.PublishBatch("answers", msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(refRes) {
		t.Fatalf("%d results vs %d", len(res), len(refRes))
	}
	for i := range res {
		if res[i] != refRes[i] {
			t.Fatalf("record %d landed at %+v over v2 vs %+v in-process", i, res[i], refRes[i])
		}
	}
	for p := 0; p < 4; p++ {
		got, err := cli.Fetch("answers", p, 0, 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refB.Fetch("answers", p, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, [][]Record{got}, [][]Record{want})
	}
}

// FuzzFrameV2RoundTrip drives the server-side wire-v2 decoder two ways:
// arbitrary bytes must never panic (only answer with a status frame),
// and well-formed frames built from fuzzed geometry must round-trip —
// the decoded batch lands exactly as an in-process PublishColumns of the
// same lanes.
func FuzzFrameV2RoundTrip(f *testing.F) {
	// A valid two-record frame as a seed.
	seedMsgs := colMsgs(2, 3, 4)
	seedCols, err := appendColumns(seedMsgs)
	if err != nil {
		f.Fatal(err)
	}
	var e enc
	e.str("answers")
	e.uint32(uint32(seedCols.Count))
	e.uint32(uint32(seedCols.KeyLen))
	e.uint32(uint32(seedCols.ValLen))
	e.bytes(seedCols.Keys)
	e.bytes(seedCols.Vals)
	f.Add(e.buf)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A lying header: count claims more records than the lanes hold.
	var lie enc
	lie.str("answers")
	lie.uint32(1 << 30)
	lie.uint32(3)
	lie.uint32(4)
	lie.bytes(seedCols.Keys)
	lie.bytes(seedCols.Vals)
	f.Add(lie.buf)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary payload bytes through the v2 handler: must not panic,
		// must always produce a status frame. A dedicated broker, because
		// a fuzz input that happens to be a valid frame lands for real.
		chaos := NewBroker()
		if err := chaos.CreateTopic("answers", 3); err != nil {
			t.Fatal(err)
		}
		resp := (&Server{broker: chaos}).handle(append([]byte{opPublishBatchV2}, data...))
		if len(resp) == 0 {
			t.Fatal("v2 handler returned an empty response")
		}

		b := NewBroker()
		if err := b.CreateTopic("answers", 3); err != nil {
			t.Fatal(err)
		}
		s := &Server{broker: b}

		// Structured round trip: reinterpret the fuzz input as lane
		// geometry plus lane bytes and build a well-formed frame.
		if len(data) < 3 {
			return
		}
		keyLen := int(data[0]%8) + 1
		valLen := int(data[1]%8) + 1
		count := int(data[2] % 16)
		lanes := data[3:]
		if len(lanes) < count*(keyLen+valLen) {
			count = len(lanes) / (keyLen + valLen)
		}
		cols := Columns{
			Count:  count,
			KeyLen: keyLen,
			ValLen: valLen,
			Keys:   lanes[:count*keyLen],
			Vals:   lanes[count*keyLen : count*(keyLen+valLen)],
		}
		if err := cols.Validate(); err != nil {
			t.Fatalf("fuzz-built columns invalid: %v", err)
		}
		var e enc
		e.byte(opPublishBatchV2)
		e.str("answers")
		e.uint32(uint32(cols.Count))
		e.uint32(uint32(cols.KeyLen))
		e.uint32(uint32(cols.ValLen))
		e.bytes(cols.Keys)
		e.bytes(cols.Vals)
		resp = s.handle(e.buf)
		if len(resp) < 1 || resp[0] != 0 {
			t.Fatalf("well-formed v2 frame rejected: % x", resp)
		}
		d := &dec{buf: resp[1:]}
		got, err := d.uint32()
		if err != nil || int(got) != count {
			t.Fatalf("acked %d of %d records (err=%v)", got, count, err)
		}

		// The wire path must agree with the in-process columnar publish.
		ref := NewBroker()
		if err := ref.CreateTopic("answers", 3); err != nil {
			t.Fatal(err)
		}
		refRes, err := ref.PublishColumns("answers", cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			part, err1 := d.uint32()
			off, err2 := d.uint64()
			if err1 != nil || err2 != nil {
				t.Fatalf("short result list at %d", i)
			}
			if int(part) != refRes[i].Partition || int64(off) != refRes[i].Offset {
				t.Fatalf("record %d: wire (%d,%d) vs in-process %+v", i, part, off, refRes[i])
			}
		}
		sameRecords(t, fetchAll(t, b, "answers"), fetchAll(t, ref, "answers"))
	})
}
