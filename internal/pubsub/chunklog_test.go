package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"privapprox/internal/wal"
)

// chunkRecords spans two full log chunks plus a partial third, so every
// publish form and every fetch below crosses chunk boundaries.
const chunkRecords = 2*logChunk + 7

// chunkMsg is record i of the chunk tests: a fixed-stride key and value
// both derived from i, so any misplaced or mixed-up entry shows.
func chunkMsg(i int) Message {
	key := binary.BigEndian.AppendUint64(nil, uint64(i))
	val := binary.BigEndian.AppendUint64([]byte("val:"), uint64(i)*7919)
	return Message{Key: key, Value: val}
}

// publishForm publishes msgs to a single-partition topic "t" through one
// of the broker's publish entry points, in slices of uneven size so
// batches straddle chunk edges.
type publishForm struct {
	name    string
	publish func(b *Broker, msgs []Message) error
}

func batched(msgs []Message, send func(batch []Message, seq uint64) error) error {
	seq := uint64(0)
	for start := 0; start < len(msgs); {
		n := min(1001, len(msgs)-start)
		seq++
		if err := send(msgs[start:start+n], seq); err != nil {
			return err
		}
		start += n
	}
	return nil
}

// batchedColumns is batched over the columnar form of each slice.
func batchedColumns(msgs []Message, send func(cols Columns, seq uint64) error) error {
	return batched(msgs, func(batch []Message, seq uint64) error {
		cols, err := appendColumns(batch)
		if err != nil {
			return err
		}
		return send(cols, seq)
	})
}

func publishForms() []publishForm {
	const wait = time.Second
	return []publishForm{
		{"Publish", func(b *Broker, msgs []Message) error {
			for _, m := range msgs {
				if _, _, err := b.Publish("t", m.Key, m.Value); err != nil {
					return err
				}
			}
			return nil
		}},
		{"PublishWait", func(b *Broker, msgs []Message) error {
			for _, m := range msgs {
				if _, _, err := b.PublishWait("t", m.Key, m.Value, wait); err != nil {
					return err
				}
			}
			return nil
		}},
		{"PublishBatch", func(b *Broker, msgs []Message) error {
			return batched(msgs, func(batch []Message, _ uint64) error {
				_, err := b.PublishBatch("t", batch)
				return err
			})
		}},
		{"PublishBatchWait", func(b *Broker, msgs []Message) error {
			return batched(msgs, func(batch []Message, _ uint64) error {
				_, err := b.PublishBatchWait("t", batch, wait)
				return err
			})
		}},
		{"PublishBatchSession", func(b *Broker, msgs []Message) error {
			return batched(msgs, func(batch []Message, seq uint64) error {
				_, err := b.PublishBatchSession("t", batch, 7, seq)
				return err
			})
		}},
		{"PublishColumns", func(b *Broker, msgs []Message) error {
			return batchedColumns(msgs, func(cols Columns, _ uint64) error {
				_, err := b.PublishColumns("t", cols)
				return err
			})
		}},
		{"PublishColumnsWait", func(b *Broker, msgs []Message) error {
			return batchedColumns(msgs, func(cols Columns, _ uint64) error {
				_, err := b.PublishColumnsWait("t", cols, wait)
				return err
			})
		}},
		{"PublishColumnsSession", func(b *Broker, msgs []Message) error {
			return batchedColumns(msgs, func(cols Columns, seq uint64) error {
				_, err := b.PublishColumnsSession("t", cols, 7, seq)
				return err
			})
		}},
	}
}

// checkRange fetches [off, off+max) and checks every record against
// chunkMsg, returning what it fetched.
func checkRange(t *testing.T, b *Broker, off int64, max int) []Record {
	t.Helper()
	recs, err := b.Fetch("t", 0, off, max)
	if err != nil {
		t.Fatalf("Fetch(%d, %d): %v", off, max, err)
	}
	want := min(int64(max), chunkRecords-off)
	if int64(len(recs)) != want {
		t.Fatalf("Fetch(%d, %d) returned %d records, want %d", off, max, len(recs), want)
	}
	for k, r := range recs {
		m := chunkMsg(int(off) + k)
		if r.Topic != "t" || r.Partition != 0 || r.Offset != off+int64(k) ||
			!bytes.Equal(r.Key, m.Key) || !bytes.Equal(r.Value, m.Value) || r.Timestamp.IsZero() {
			t.Fatalf("Fetch(%d, %d)[%d] = %+v, want offset %d key %x value %x",
				off, max, k, r, off+int64(k), m.Key, m.Value)
		}
	}
	return recs
}

func TestChunkedLogAcrossPublishForms(t *testing.T) {
	msgs := make([]Message, chunkRecords)
	for i := range msgs {
		msgs[i] = chunkMsg(i)
	}
	for _, form := range publishForms() {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", form.name, durable), func(t *testing.T) {
				dir := t.TempDir()
				open := func() *Broker {
					if !durable {
						return NewBroker()
					}
					b, err := OpenBroker(dir, wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				b := open()
				defer func() { b.Close() }()
				if err := b.CreateTopic("t", 1); err != nil {
					t.Fatal(err)
				}
				if err := form.publish(b, msgs); err != nil {
					t.Fatal(err)
				}
				if end, err := b.EndOffset("t", 0); err != nil || end != chunkRecords {
					t.Fatalf("EndOffset = %d, %v; want %d", end, err, chunkRecords)
				}
				all := checkRange(t, b, 0, chunkRecords+100)
				for _, r := range [][2]int64{
					{logChunk - 2, 5},     // across the first chunk edge
					{logChunk, 1},         // first entry of the second chunk
					{logChunk - 1, 1},     // last entry of the first chunk
					{2*logChunk - 3, 10},  // into the partial third chunk
					{chunkRecords - 1, 9}, // the last record
					{chunkRecords, 4},     // at the end: empty
				} {
					checkRange(t, b, r[0], int(r[1]))
				}
				for _, off := range []int64{-1, chunkRecords + 1} {
					if _, err := b.Fetch("t", 0, off, 1); !errors.Is(err, ErrBadOffset) {
						t.Errorf("Fetch at %d: err = %v, want ErrBadOffset", off, err)
					}
				}
				if n, err := b.Backlog("t"); err != nil || n != chunkRecords {
					t.Fatalf("Backlog = %d, %v; want %d", n, err, chunkRecords)
				}
				if err := b.CommitOffset("g", "t", 0, logChunk+3); err != nil {
					t.Fatal(err)
				}
				if n, _ := b.Backlog("t"); n != chunkRecords-(logChunk+3) {
					t.Fatalf("Backlog after commit = %d, want %d", n, chunkRecords-(logChunk+3))
				}
				if st := b.Stats(); st.TotalBacklog != chunkRecords-(logChunk+3) || st.MessagesIn != chunkRecords {
					t.Fatalf("Stats = %+v", st)
				}
				if !durable {
					return
				}
				// A WAL reopen restores the same records, chunk edges and
				// timestamps included, and appends after them.
				b.Close()
				b = open()
				again := checkRange(t, b, 0, chunkRecords)
				for i := range all {
					if !again[i].Timestamp.Equal(all[i].Timestamp) {
						t.Fatalf("record %d: timestamp %v after reopen, want %v", i, again[i].Timestamp, all[i].Timestamp)
					}
				}
				if _, off, err := b.Publish("t", []byte("k"), []byte("v")); err != nil || off != chunkRecords {
					t.Fatalf("publish after reopen: offset %d, %v; want %d", off, err, chunkRecords)
				}
			})
		}
	}
}

// FetchWait appends after whatever dst already holds, on the broker and
// over TCP alike, and leaves dst untouched on timeout.
func TestFetchWaitAppendsToDst(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m := chunkMsg(i)
		if _, _, err := b.Publish("t", m.Key, m.Value); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := Record{Topic: "prefix", Offset: 99, Key: []byte("pk"), Value: []byte("pv")}
	for _, tr := range []struct {
		name string
		t    Transport
	}{{"broker", b}, {"client", cli}} {
		t.Run(tr.name, func(t *testing.T) {
			dst := []Record{sentinel}
			got, err := tr.t.FetchWait(dst, "t", 0, 1, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 5 {
				t.Fatalf("len = %d, want 1 prefix + 4 records", len(got))
			}
			if p := got[0]; p.Topic != "prefix" || p.Offset != 99 || string(p.Key) != "pk" || string(p.Value) != "pv" {
				t.Fatalf("prefix clobbered: %+v", p)
			}
			for k, r := range got[1:] {
				m := chunkMsg(1 + k)
				if r.Offset != int64(1+k) || !bytes.Equal(r.Key, m.Key) || !bytes.Equal(r.Value, m.Value) {
					t.Fatalf("record %d = %+v", k, r)
				}
			}
			got, err = tr.t.FetchWait(got[:1], "t", 0, 5, 10, 5*time.Millisecond)
			if err != nil || len(got) != 1 || got[0].Offset != 99 {
				t.Fatalf("timed-out FetchWait = %+v, %v; want the prefix alone", got, err)
			}
		})
	}
}
