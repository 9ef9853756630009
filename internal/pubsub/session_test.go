package pubsub

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"privapprox/internal/wal"
)

func sessionMsgs(tag string, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{
			Key:   []byte(fmt.Sprintf("%s-key-%03d", tag, i)),
			Value: []byte(fmt.Sprintf("%s-val-%03d", tag, i)),
		}
	}
	return msgs
}

func topicEnd(t *testing.T, pub Transport, topic string) int64 {
	t.Helper()
	parts, err := pub.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for p := 0; p < parts; p++ {
		end, err := pub.EndOffset(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	return total
}

func TestSessionDedupExactReplay(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	msgs := sessionMsgs("a", 10)
	first, err := b.PublishBatchSession("t", msgs, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := b.PublishBatchSession("t", msgs, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != replay[i] {
			t.Fatalf("replay result %d = %+v, original %+v", i, replay[i], first[i])
		}
	}
	st := b.Stats()
	if st.MessagesIn != 10 || st.Duplicates != 10 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 10 and 10", st.MessagesIn, st.Duplicates)
	}
	if end := topicEnd(t, b, "t"); end != 10 {
		t.Fatalf("topic holds %d records, want 10", end)
	}
	// A newer sequence appends; an older one is still deduplicated.
	if _, err := b.PublishBatchSession("t", sessionMsgs("b", 5), 7, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatchSession("t", msgs, 7, 1); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b, "t"); end != 15 {
		t.Fatalf("topic holds %d records, want 15", end)
	}
	// Distinct producers never collide.
	if _, err := b.PublishBatchSession("t", msgs, 8, 1); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b, "t"); end != 25 {
		t.Fatalf("topic holds %d records after second producer, want 25", end)
	}
}

func TestSessionRejectsKeylessAndZeroPID(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatchSession("t", []Message{{Value: []byte("v")}}, 7, 1); !errors.Is(err, ErrWire) {
		t.Fatalf("keyless session batch: %v, want ErrWire", err)
	}
	if _, err := b.PublishBatchSession("t", sessionMsgs("a", 1), 0, 1); !errors.Is(err, ErrWire) {
		t.Fatalf("pid 0: %v, want ErrWire", err)
	}
	cols := Columns{Count: 1, KeyLen: 2, ValLen: 2, Keys: []byte("ab"), Vals: []byte("cd")}
	if _, err := b.PublishColumnsSession("t", cols, 0, 1); !errors.Is(err, ErrWire) {
		t.Fatalf("columnar pid 0: %v, want ErrWire", err)
	}
}

func TestSessionColumnsDedup(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cols := Columns{
		Count:  4,
		KeyLen: 4,
		ValLen: 3,
		Keys:   []byte("aaaabbbbccccdddd"),
		Vals:   []byte("v00v11v22v33"),
	}
	if _, err := b.PublishColumnsSession("t", cols, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishColumnsSession("t", cols, 5, 1); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.MessagesIn != 4 || st.Duplicates != 4 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 4 and 4", st.MessagesIn, st.Duplicates)
	}
	if end := topicEnd(t, b, "t"); end != 4 {
		t.Fatalf("topic holds %d records, want 4", end)
	}
}

// TestSessionDedupSurvivesRestart pins the WAL half of idempotence: the
// per-partition (producer, sequence) slots are journaled with the
// records, so a broker restarted from its journal still recognizes a
// replay of a pre-crash batch.
func TestSessionDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	batches := [][]Message{sessionMsgs("a", 6), sessionMsgs("b", 6), sessionMsgs("c", 6)}
	for i, msgs := range batches {
		if _, err := b.PublishBatchSession("t", msgs, 9, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cols := Columns{Count: 2, KeyLen: 4, ValLen: 2, Keys: []byte("colAcolB"), Vals: []byte("x0x1")}
	if _, err := b.PublishColumnsSession("t", cols, 9, 4); err != nil {
		t.Fatal(err)
	}
	endBefore := topicEnd(t, b, "t")
	b.Close()

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if end := topicEnd(t, b2, "t"); end != endBefore {
		t.Fatalf("replayed topic holds %d records, want %d", end, endBefore)
	}
	// Replays of every pre-restart sequence must dedup against the
	// journal-restored slots.
	for i, msgs := range batches {
		if _, err := b2.PublishBatchSession("t", msgs, 9, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b2.PublishColumnsSession("t", cols, 9, 4); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b2, "t"); end != endBefore {
		t.Fatalf("replays appended: topic holds %d records, want %d", topicEnd(t, b2, "t"), endBefore)
	}
	if st := b2.Stats(); st.Duplicates != int64(6*len(batches))+2 {
		t.Fatalf("Duplicates = %d, want %d", st.Duplicates, 6*len(batches)+2)
	}
	// A fresh sequence still appends after the restart.
	if _, err := b2.PublishBatchSession("t", sessionMsgs("d", 3), 9, 5); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b2, "t"); end != endBefore+3 {
		t.Fatalf("new sequence: topic holds %d records, want %d", end, endBefore+3)
	}
}

// TestPlainJournalUntouchedBySessions: records published without a
// session keep the v1 journal framing — a pid-0 publish is byte-for-
// byte what a pre-session broker wrote, so old journals replay and
// mixed-version fleets interoperate.
func TestPlainJournalUntouchedBySessions(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatch("t", sessionMsgs("plain", 4)); err == nil {
		t.Fatal("publish to missing topic succeeded")
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishBatch("t", sessionMsgs("plain", 4)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	recs, err := b2.Fetch("t", 0, 0, 10)
	if err != nil || len(recs) != 4 {
		t.Fatalf("Fetch after replay = %d recs, %v", len(recs), err)
	}
}

func TestSessionOverTCP(t *testing.T) {
	b, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	msgs := sessionMsgs("tcp", 8)
	if _, err := cli.PublishBatchSession("t", msgs, 11, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.PublishBatchSession("t", msgs, 11, 1); err != nil {
		t.Fatal(err)
	}
	cols := Columns{Count: 2, KeyLen: 4, ValLen: 2, Keys: []byte("colAcolB"), Vals: []byte("x0x1")}
	if _, err := cli.PublishColumnsSession("t", cols, 11, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.PublishColumnsSession("t", cols, 11, 2); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.MessagesIn != 10 || st.Duplicates != 10 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 10 and 10", st.MessagesIn, st.Duplicates)
	}
}

// flakySession wraps a broker and fails the first failures session
// publishes after the broker applied them — the ambiguous ack-loss
// shape the producer must retry through.
type flakySession struct {
	*Broker
	failures int
}

func (f *flakySession) PublishBatchSession(topic string, msgs []Message, pid, seq uint64) ([]PubResult, error) {
	res, err := f.Broker.PublishBatchSession(topic, msgs, pid, seq)
	if err != nil {
		return nil, err
	}
	if f.failures > 0 {
		f.failures--
		return nil, fmt.Errorf("%w: flaky test transport", ErrAmbiguous)
	}
	return res, nil
}

func (f *flakySession) PublishColumnsSession(topic string, cols Columns, pid, seq uint64) ([]PubResult, error) {
	return f.Broker.PublishColumnsSession(topic, cols, pid, seq)
}

func TestProducerRetriesAmbiguousExactlyOnce(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	ft := &flakySession{Broker: b, failures: 2}
	prod := NewProducer(ft, RetryPolicy{Attempts: 5, Backoff: time.Microsecond})
	if err := prod.PublishBatch("t", sessionMsgs("r", 6)); err != nil {
		t.Fatalf("publish through flaky transport: %v", err)
	}
	st := b.Stats()
	if st.MessagesIn != 6 {
		t.Fatalf("MessagesIn = %d, want 6 (exactly-once effect)", st.MessagesIn)
	}
	if st.Duplicates != 12 {
		t.Fatalf("Duplicates = %d, want 12 (two deduplicated retries)", st.Duplicates)
	}
	// Attempts exhausted before the transport heals → the error surfaces.
	ft.failures = 5
	prod2 := NewProducer(ft, RetryPolicy{Attempts: 2, Backoff: time.Microsecond})
	if err := prod2.PublishBatch("t", sessionMsgs("s", 2)); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("exhausted retries: %v, want ErrAmbiguous", err)
	}
}

func TestProducerSequencesPerTopic(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for _, topic := range []string{"t1", "t2"} {
		if err := b.CreateTopic(topic, 1); err != nil {
			t.Fatal(err)
		}
	}
	prod := NewProducer(b, RetryPolicy{})
	if prod.ID() == 0 {
		t.Fatal("producer ID is zero")
	}
	for i := 0; i < 3; i++ {
		if err := prod.PublishBatch("t1", sessionMsgs(fmt.Sprintf("a%d", i), 2)); err != nil {
			t.Fatal(err)
		}
		if err := prod.PublishBatch("t2", sessionMsgs(fmt.Sprintf("b%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.MessagesIn != 12 || st.Duplicates != 0 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 12 and 0", st.MessagesIn, st.Duplicates)
	}
}
