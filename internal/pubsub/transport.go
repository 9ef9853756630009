package pubsub

import (
	"fmt"
	"time"
)

// Message is one record to publish, the unit of the batched publish
// path: a client flushes an epoch's worth of shares to a proxy as one
// []Message in a single broker call (and, over TCP, a single frame).
type Message struct {
	Key   []byte
	Value []byte
}

// PubResult reports where one published message landed.
type PubResult struct {
	Partition int
	Offset    int64
}

// Transport is the broker surface the rest of the system builds on.
// Both the in-process *Broker and the TCP *Client implement all of it,
// so proxies and the aggregator's consumers run unchanged over either
// backend — the in-process pipeline and the networked Fig. 3 deployment
// are the same code with a different Transport plugged in. The surface
// is fixed: every peer speaks every method, so no caller probes what a
// transport or its server supports.
type Transport interface {
	// CreateTopic registers a topic with the given partition count.
	CreateTopic(topic string, partitions int) error
	// Partitions returns a topic's partition count.
	Partitions(topic string) (int, error)
	// Publish appends one record; a non-nil key selects the partition
	// by hash, a nil key round-robins.
	Publish(topic string, key, value []byte) (int, int64, error)
	// PublishBatch appends a batch of records in one call, returning
	// one PubResult per message in input order.
	PublishBatch(topic string, msgs []Message) ([]PubResult, error)
	// PublishWait and PublishBatchWait are the blocking forms bounded
	// (backpressured) topics call for: they retry a transient
	// ErrPartitionFull until the record lands or the timeout passes.
	PublishWait(topic string, key, value []byte, timeout time.Duration) (int, int64, error)
	PublishBatchWait(topic string, msgs []Message, timeout time.Duration) ([]PubResult, error)
	// PublishColumns appends a columnar batch (see Columns); over TCP it
	// travels as one opPublishBatchV2 frame. PublishColumnsWait is its
	// blocking form.
	PublishColumns(topic string, cols Columns) ([]PubResult, error)
	PublishColumnsWait(topic string, cols Columns, timeout time.Duration) ([]PubResult, error)
	// PublishBatchSession and PublishColumnsSession are the idempotent
	// (producer-session) forms: the batch is tagged with a producer ID
	// and a per-topic sequence number, and the broker deduplicates per
	// partition so an at-least-once retry has exactly-once effect.
	// Callers normally go through Producer, which owns ID and sequence
	// management plus the retry policy.
	PublishBatchSession(topic string, msgs []Message, pid, seq uint64) ([]PubResult, error)
	PublishColumnsSession(topic string, cols Columns, pid, seq uint64) ([]PubResult, error)
	// FetchWait reads up to max records from a partition starting at
	// offset and appends them to dst. wait <= 0 returns immediately with
	// whatever is available; wait > 0 blocks until at least one record
	// arrives or the wait elapses (returning dst unchanged on timeout).
	// The appended records own their keys and values, which live in one
	// buffer per call; the headers in dst are the caller's to reuse.
	FetchWait(dst []Record, topic string, partition int, offset int64, max int, wait time.Duration) ([]Record, error)
	// EndOffset returns the next offset to be written in a partition.
	EndOffset(topic string, partition int) (int64, error)
	// CommitOffset durably records a consumer group's next-read offset.
	CommitOffset(group, topic string, partition int, offset int64) error
	// CommittedOffset returns a group's committed offset, 0 when none.
	CommittedOffset(group, topic string, partition int) (int64, error)
}

// Columns is the columnar form of a publish batch: Count fixed-stride
// records laid out as two contiguous lanes, record i's key at
// Keys[i*KeyLen:(i+1)*KeyLen] and its value at Vals[i*ValLen:...]. It
// is the shape one columnar frame (opPublishBatchV2) carries — one
// header plus two lane copies, never re-sliced per message — and the
// shape xorcrypt's batch split produces. The fixed stride is a
// same-query constraint by construction: batches mixing message sizes
// cannot be expressed and are rejected before they reach the wire.
//
// The lanes are borrowed, not taken over: a publisher fully consumes
// (copies or encodes) both lanes before PublishColumns returns, so the
// caller may reuse them immediately — the same ownership rule as
// Message keys/values (DESIGN.md §6, §10).
type Columns struct {
	Count  int
	KeyLen int
	ValLen int
	Keys   []byte
	Vals   []byte
}

// Validate checks the lane geometry.
func (c Columns) Validate() error {
	if c.Count < 0 {
		return fmt.Errorf("%w: %d records", ErrWire, c.Count)
	}
	if c.Count == 0 {
		return nil
	}
	if c.KeyLen <= 0 || c.ValLen <= 0 {
		return fmt.Errorf("%w: key stride %d, value stride %d", ErrWire, c.KeyLen, c.ValLen)
	}
	if len(c.Keys) != c.Count*c.KeyLen {
		return fmt.Errorf("%w: %d-byte key lane for %d×%d", ErrWire, len(c.Keys), c.Count, c.KeyLen)
	}
	if len(c.Vals) != c.Count*c.ValLen {
		return fmt.Errorf("%w: %d-byte value lane for %d×%d", ErrWire, len(c.Vals), c.Count, c.ValLen)
	}
	return nil
}

// Key returns record i's key as a view into the key lane.
func (c Columns) Key(i int) []byte { return c.Keys[i*c.KeyLen : (i+1)*c.KeyLen : (i+1)*c.KeyLen] }

// Val returns record i's value as a view into the value lane.
func (c Columns) Val(i int) []byte { return c.Vals[i*c.ValLen : (i+1)*c.ValLen : (i+1)*c.ValLen] }

var (
	_ Transport = (*Broker)(nil)
	_ Transport = (*Client)(nil)
)
