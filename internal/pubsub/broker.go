// Package pubsub is the Kafka substitute PrivApprox proxies are built
// on (paper §5): a topic-based publish/subscribe broker with partitioned
// append-only logs, committed consumer-group offsets, blocking polls,
// and an optional TCP transport. The proxies create two topics — key and
// answer — and forward client shares through them to the aggregator.
package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/telemetry"
	"privapprox/internal/wal"
)

// Errors reported by the broker.
var (
	ErrNoTopic     = errors.New("pubsub: no such topic")
	ErrTopicExists = errors.New("pubsub: topic already exists")
	ErrNoPartition = errors.New("pubsub: no such partition")
	ErrBadOffset   = errors.New("pubsub: offset out of range")
	ErrClosed      = errors.New("pubsub: broker closed")
	// ErrPartitionFull is the backpressure signal of a bounded partition
	// (SetTopicCapacity): the publish would push the partition's
	// unconsumed backlog — records past the slowest committed consumer
	// offset — beyond its capacity. The publish (or the whole batch, for
	// PublishBatch: a full batch is refused all-or-nothing, never
	// partially applied) had no effect; the publisher may retry after
	// consumers commit progress, or use PublishWait/PublishBatchWait to
	// block with a deadline. The sentinel survives the TCP transport:
	// errors.Is(err, ErrPartitionFull) holds on the remote publisher too.
	ErrPartitionFull = errors.New("pubsub: partition full")
)

// Record is one log entry, the unit producers publish and consumers
// poll.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	Timestamp time.Time
}

// Stats counts broker traffic; Fig. 9's network accounting reads these.
// The backlog fields surface consumer lag at snapshot time, the signal
// overload control acts on.
type Stats struct {
	MessagesIn  int64
	BytesIn     int64
	MessagesOut int64
	BytesOut    int64
	// Rejected counts publish attempts refused with ErrPartitionFull
	// (each message of a refused batch counts once per attempt).
	Rejected int64
	// Duplicates counts messages discarded by producer-session
	// deduplication: a retried session batch whose (producer, sequence)
	// tag the partition had already applied. Nonzero Duplicates under
	// fault injection is the proof that at-least-once retries were
	// actually deduplicated rather than silently double-published.
	Duplicates int64
	// TotalBacklog is the number of unconsumed records summed over all
	// partitions at snapshot time: per partition, end offset minus the
	// slowest committed consumer offset (the full log length before any
	// group commits).
	TotalBacklog int64
	// MaxBacklog is the largest single-partition backlog at snapshot
	// time.
	MaxBacklog int64
}

// logChunk is the number of entries in one full chunk of a partition
// log. A partition's records live in fixed-size chunks so the log grows
// without ever re-copying what it already holds: only the first chunk
// grows by doubling (small logs stay small); every later chunk is
// allocated at full size, and a full chunk is never copied again.
const logChunk = 4096

// entry is one stored record in compact form: topic, partition and
// offset follow from the entry's position, and the timestamp is kept
// as wall-clock Unix nanoseconds (Fetch rebuilds a time.Time from it,
// as the TCP client does from the wire).
type entry struct {
	key, value []byte
	ns         int64
}

type partitionLog struct {
	mu   sync.Mutex
	cond *sync.Cond
	// chunks hold the log: every chunk but the last has exactly
	// logChunk entries. Touched only through end, append and at.
	chunks [][]entry
	// capacity, when > 0, bounds the partition's unconsumed backlog:
	// a publish that would leave more than capacity records past the
	// slowest committed consumer offset fails with ErrPartitionFull.
	capacity int
	// w, when non-nil, is the partition's write-ahead log: every publish
	// journals its record here — before the in-memory append, before the
	// ack — so an acknowledged record survives a broker restart. The WAL
	// LSN of a record equals its partition offset. encBuf is the frame
	// scratch, touched only under mu.
	w      *wal.Log
	encBuf []byte
	// producers is the partition's session-dedup state, lazily allocated
	// on the first session publish: producer ID → the newest applied
	// sequence and where its slice of records landed. The state is
	// journaled with the records themselves (every record of a session
	// slice carries its producer tag), so it survives a restart in
	// exactly the same atomic unit as the data it guards.
	producers map[uint64]producerSlot
}

// producerSlot remembers the newest batch one producer session applied
// to one partition: a retry carrying the same sequence is a duplicate
// and returns the stored offsets instead of appending again.
type producerSlot struct {
	seq   uint64
	first int64 // offset of the slice's first record
	count int   // records in the slice
}

func newPartitionLog() *partitionLog {
	p := &partitionLog{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// end returns the next offset to be written. Caller holds p.mu.
func (p *partitionLog) end() int64 {
	n := len(p.chunks)
	if n == 0 {
		return 0
	}
	return int64(n-1)*logChunk + int64(len(p.chunks[n-1]))
}

// append adds one entry at offset end(). Caller holds p.mu.
func (p *partitionLog) append(e entry) {
	n := len(p.chunks)
	if n == 0 || len(p.chunks[n-1]) == logChunk {
		size := logChunk
		if n == 0 {
			size = 16
		}
		p.chunks = append(p.chunks, make([]entry, 0, size))
		n++
	}
	c := p.chunks[n-1]
	if len(c) == cap(c) {
		// Only the first chunk starts short; it doubles up to logChunk.
		grown := make([]entry, len(c), min(2*cap(c), logChunk))
		copy(grown, c)
		c = grown
	}
	p.chunks[n-1] = append(c, e)
}

// at returns the entry at offset off, which must be below end(). Caller
// holds p.mu.
func (p *partitionLog) at(off int64) *entry {
	return &p.chunks[off/logChunk][off%logChunk]
}

type topicLog struct {
	name       string
	partitions []*partitionLog
}

// Broker is an in-memory, concurrency-safe message broker. A broker
// opened with OpenBroker additionally journals partitions, consumer
// commits, and topic metadata to write-ahead logs under a data
// directory, and rebuilds itself from them on restart.
type Broker struct {
	mu      sync.RWMutex
	topics  map[string]*topicLog
	offsets map[string]map[string]map[int]int64 // group → topic → partition → next offset
	stats   Stats
	statsMu sync.Mutex
	closed  bool
	rr      uint64      // round-robin counter for keyless publishes
	dur     *durability // nil for a purely in-memory broker
	// pubLat, when set, observes the wall time of each successful
	// publish call (batch-granular on the batch paths); nil costs one
	// atomic load per publish. See telemetry.go.
	pubLat atomic.Pointer[telemetry.Histogram]
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:  make(map[string]*topicLog),
		offsets: make(map[string]map[string]map[int]int64),
	}
}

// SupportsLineage reports provenance-plane support: an in-process
// broker always hosts the lineage sidecar topic (Client.SupportsLineage
// says the same of every served broker).
func (b *Broker) SupportsLineage() bool { return true }

// CreateTopic registers a topic with the given partition count.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if name == "" || partitions <= 0 {
		return fmt.Errorf("pubsub: invalid topic %q with %d partitions", name, partitions)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	if b.dur != nil {
		// Journal the topic before creating it, then bind a WAL to every
		// partition; a crash between the two replays the metadata record
		// and re-creates the (empty) partition logs idempotently.
		if err := b.dur.journalTopic(name, partitions); err != nil {
			return err
		}
	}
	t := &topicLog{name: name, partitions: make([]*partitionLog, partitions)}
	for i := range t.partitions {
		t.partitions[i] = newPartitionLog()
		if b.dur != nil {
			w, err := b.dur.openPartitionWAL(name, i)
			if err != nil {
				for _, p := range t.partitions[:i] {
					p.w.Close()
				}
				return err
			}
			t.partitions[i].w = w
		}
	}
	b.topics[name] = t
	return nil
}

// Topics lists topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// Partitions returns a topic's partition count.
func (b *Broker) Partitions(topic string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	return len(t.partitions), nil
}

// SetTopicCapacity bounds every partition of a topic to at most
// capacity unconsumed records. A publish that would push a partition's
// backlog — records past the slowest committed consumer offset —
// beyond the bound fails with ErrPartitionFull instead of growing the
// log without limit. capacity <= 0 removes the bound. Partition logs
// are append-only, so the bound is on the *unconsumed* suffix: a
// partition frees space when its slowest consumer group commits
// progress, not when records are deleted.
func (b *Broker) SetTopicCapacity(topic string, capacity int) error {
	b.mu.RLock()
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if capacity < 0 {
		capacity = 0
	}
	for _, p := range t.partitions {
		p.mu.Lock()
		p.capacity = capacity
		p.mu.Unlock()
	}
	return nil
}

// committedFloor returns the slowest committed consumer offset for one
// partition — 0 when no group has committed yet, so a bounded partition
// admits at most capacity records until its first consumer commit.
func (b *Broker) committedFloor(topic string, partition int) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	floor := int64(-1)
	for _, gt := range b.offsets {
		tp, ok := gt[topic]
		if !ok {
			continue
		}
		off, ok := tp[partition]
		if !ok {
			continue
		}
		if floor < 0 || off < floor {
			floor = off
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// overCapacity reports whether appending n records would overflow the
// bounded partition. Caller holds p.mu; floor was read before the lock,
// which is safe because commits only advance — a stale floor can only
// make the check more conservative.
func (p *partitionLog) overCapacity(n int, floor int64) bool {
	return p.capacity > 0 && p.end()+int64(n)-floor > int64(p.capacity)
}

// Publish appends a record. A non-nil key selects the partition by hash
// (records with equal keys stay ordered); a nil key round-robins. On a
// bounded partition at capacity the record is refused with
// ErrPartitionFull (see SetTopicCapacity).
func (b *Broker) Publish(topic string, key, value []byte) (int, int64, error) {
	h := b.pubLat.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, 0, ErrClosed
	}
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	var part int
	if key != nil {
		part = partitionFor(key, len(t.partitions))
	} else {
		b.statsMu.Lock()
		part = int(b.rr % uint64(len(t.partitions)))
		b.rr++
		b.statsMu.Unlock()
	}
	p := t.partitions[part]
	floor := b.committedFloor(topic, part)
	p.mu.Lock()
	if p.overCapacity(1, floor) {
		capacity := p.capacity
		p.mu.Unlock()
		b.statsMu.Lock()
		b.stats.Rejected++
		b.statsMu.Unlock()
		return 0, 0, fmt.Errorf("%w: topic %q partition %d at capacity %d", ErrPartitionFull, topic, part, capacity)
	}
	offset := p.end()
	now := time.Now()
	if p.w != nil {
		// Durability before visibility: the record reaches the WAL (per
		// the fsync policy) before it is appended in memory, broadcast to
		// consumers, or acknowledged to the publisher.
		p.encBuf = appendPartitionRecord(p.encBuf[:0], now, key, value)
		if _, err := p.w.Append(p.encBuf); err != nil {
			p.mu.Unlock()
			return 0, 0, err
		}
	}
	p.append(entry{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		ns:    now.UnixNano(),
	})
	p.cond.Broadcast()
	p.mu.Unlock()

	b.statsMu.Lock()
	b.stats.MessagesIn++
	b.stats.BytesIn += int64(len(key) + len(value))
	b.statsMu.Unlock()
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
	return part, offset, nil
}

// PublishBatch appends a batch of records in one call, amortizing lock
// acquisitions: messages are grouped by destination partition, each
// partition is locked once, and the traffic counters are updated once
// for the whole batch. Results are returned in input order. Partition
// selection matches Publish (key hash, nil key round-robins).
//
// The batch is all-or-nothing: every target partition's capacity is
// checked (and every partition journaled) before any in-memory append,
// so a batch spanning several partitions of a bounded topic is either
// fully applied or refused with ErrPartitionFull having published
// nothing — a partially applied batch would break the publisher's
// retry (retrying would duplicate the partitions that did land).
func (b *Broker) PublishBatch(topic string, msgs []Message) ([]PubResult, error) {
	return b.publishRows(topic, msgs, 0, 0)
}

// PublishBatchSession is PublishBatch tagged with a producer session:
// pid identifies the producer (nonzero), seq its per-topic batch
// sequence, strictly increasing across a producer's batches to one
// topic. A partition that has already applied a sequence at or above
// seq skips its slice of the batch (counting Stats.Duplicates) and, for
// an exact replay of the newest batch, returns the offsets the original
// landed at — so a retry after an ambiguous failure is exactly-once.
// Every message must carry a key: keyless routing is round-robin, which
// would route a retry differently and defeat per-partition dedup.
func (b *Broker) PublishBatchSession(topic string, msgs []Message, pid, seq uint64) ([]PubResult, error) {
	if pid == 0 {
		return nil, fmt.Errorf("%w: zero producer id", ErrWire)
	}
	for i := range msgs {
		if msgs[i].Key == nil {
			return nil, fmt.Errorf("%w: keyless message in session batch", ErrWire)
		}
	}
	return b.publishRows(topic, msgs, pid, seq)
}

// dupSlices collects, per locked target partition, the session slot
// proving that partition already applied this (pid, seq) — the caller
// then skips capacity checks, journaling, and appends for it. Caller
// holds every partition lock in parts.
func dupSlices(t *topicLog, parts []int, pid, seq uint64) map[int]producerSlot {
	if pid == 0 {
		return nil
	}
	var dup map[int]producerSlot
	for _, part := range parts {
		if slot, ok := t.partitions[part].producers[pid]; ok && seq <= slot.seq {
			if dup == nil {
				dup = make(map[int]producerSlot)
			}
			dup[part] = slot
		}
	}
	return dup
}

// recordSlice notes a freshly applied session slice in the partition's
// dedup state. Caller holds p.mu.
func (p *partitionLog) recordSlice(pid, seq uint64, first int64, count int) {
	if pid == 0 {
		return
	}
	if p.producers == nil {
		p.producers = make(map[uint64]producerSlot)
	}
	p.producers[pid] = producerSlot{seq: seq, first: first, count: count}
}

// fillDupResults reconstructs a duplicate slice's results: an exact
// replay of the newest applied sequence gets the original offsets (the
// slice was appended contiguously); older sequences get zero offsets —
// their placement is no longer tracked, and session publishers treat
// results of deduplicated batches as advisory.
func fillDupResults(results []PubResult, idxs []int, slot producerSlot, seq uint64) {
	if slot.seq != seq || slot.count != len(idxs) {
		return
	}
	for j, i := range idxs {
		results[i].Offset = slot.first + int64(j)
	}
}

// partitionFor routes a keyed record: FNV-1a of the key modulo the
// partition count, so records with equal keys stay ordered.
func partitionFor(key []byte, partitions int) int {
	part := int(fnv1a32(key)) % partitions
	if part < 0 {
		part += partitions
	}
	return part
}

// partIndex is a batch's record indexes grouped by target partition,
// built by a counting pass over the topic's partition count rather than
// a map: partition p's indexes, in input order, are idx[bound[p]:
// bound[p+1]], and parts lists the partitions that received records in
// ascending order — the lock order of the two-phase apply.
type partIndex struct {
	idx, bound, parts []int
}

func (x partIndex) of(part int) []int { return x.idx[x.bound[part]:x.bound[part+1]] }

// groupByPartition builds the partIndex of a routed batch; every
// results[i].Partition must be set. One allocation backs all three
// slices.
func groupByPartition(results []PubResult, partitions int) partIndex {
	n := len(results)
	buf := make([]int, n+2*partitions+2)
	idx, bound, parts := buf[:n], buf[n:n+partitions+2], buf[n+partitions+2:n+partitions+2]
	for _, r := range results {
		bound[r.Partition+2]++
	}
	for p := 2; p < len(bound); p++ {
		bound[p] += bound[p-1]
	}
	// bound[p+1] now holds partition p's first slot; filling through it
	// leaves it at p's end, which is p+1's first slot.
	for i, r := range results {
		idx[bound[r.Partition+1]] = i
		bound[r.Partition+1]++
	}
	bound = bound[:partitions+1]
	for p := 0; p < partitions; p++ {
		if bound[p] < bound[p+1] {
			parts = append(parts, p)
		}
	}
	return partIndex{idx: idx, bound: bound, parts: parts}
}

// carve copies b into the spare capacity of *arena and returns the copy
// as a full-slice-capped view, so neighbouring views can never be
// appended into. Empty input stays nil. Sized arenas never reallocate.
func carve(arena *[]byte, b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	start := len(*arena)
	*arena = append(*arena, b...)
	return (*arena)[start:len(*arena):len(*arena)]
}

func (b *Broker) publishRows(topic string, msgs []Message, pid, seq uint64) ([]PubResult, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	h := b.pubLat.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}

	// Route every message to its partition.
	results := make([]PubResult, len(msgs))
	keyless := 0
	var bytesIn int64
	for i, m := range msgs {
		bytesIn += int64(len(m.Key) + len(m.Value))
		if m.Key != nil {
			results[i].Partition = partitionFor(m.Key, len(t.partitions))
		} else {
			keyless++
		}
	}
	if keyless > 0 {
		b.statsMu.Lock()
		rr := b.rr
		b.rr += uint64(keyless)
		b.statsMu.Unlock()
		for i := range msgs {
			if msgs[i].Key == nil {
				results[i].Partition = int(rr % uint64(len(t.partitions)))
				rr++
			}
		}
	}
	byPart := groupByPartition(results, len(t.partitions))

	// Two-phase apply: lock every target partition (in ascending order,
	// so concurrent batches cannot deadlock), check all capacities, then
	// journal and append. No partition's memory log is touched until the
	// whole batch is known to fit and is journaled.
	parts := byPart.parts
	floors := make([]int64, len(parts))
	for i, part := range parts {
		floors[i] = b.committedFloor(topic, part)
	}
	locked := 0
	unlockAll := func() {
		for _, part := range parts[:locked] {
			t.partitions[part].mu.Unlock()
		}
	}
	for _, part := range parts {
		t.partitions[part].mu.Lock()
		locked++
	}
	// Partitions that already applied this (producer, sequence) — a retry
	// of a batch whose first attempt died after some partitions journaled
	// — are skipped wholesale: no capacity check, no journal, no append.
	dup := dupSlices(t, parts, pid, seq)
	now := time.Now()
	for i, part := range parts {
		if _, isDup := dup[part]; isDup {
			continue
		}
		p := t.partitions[part]
		if p.overCapacity(len(byPart.of(part)), floors[i]) {
			capacity := p.capacity
			unlockAll()
			b.statsMu.Lock()
			b.stats.Rejected += int64(len(msgs))
			b.statsMu.Unlock()
			return nil, fmt.Errorf("%w: topic %q partition %d at capacity %d (batch of %d refused whole)",
				ErrPartitionFull, topic, part, capacity, len(msgs))
		}
	}
	for _, part := range parts {
		if _, isDup := dup[part]; isDup {
			continue
		}
		p := t.partitions[part]
		if p.w != nil {
			if err := journalBatch(p, now, msgs, byPart.of(part), pid, seq); err != nil {
				unlockAll()
				return nil, err
			}
		}
	}
	// One arena holds every stored key and value of the batch.
	arena := make([]byte, 0, bytesIn)
	var duplicates int64
	for _, part := range parts {
		p := t.partitions[part]
		idxs := byPart.of(part)
		if slot, isDup := dup[part]; isDup {
			fillDupResults(results, idxs, slot, seq)
			duplicates += int64(len(idxs))
			for _, i := range idxs {
				bytesIn -= int64(len(msgs[i].Key) + len(msgs[i].Value))
			}
			continue
		}
		first := p.end()
		for _, i := range idxs {
			results[i].Offset = p.end()
			p.append(entry{
				key:   carve(&arena, msgs[i].Key),
				value: carve(&arena, msgs[i].Value),
				ns:    now.UnixNano(),
			})
		}
		p.recordSlice(pid, seq, first, len(idxs))
		p.cond.Broadcast()
	}
	unlockAll()

	b.statsMu.Lock()
	b.stats.MessagesIn += int64(len(msgs)) - duplicates
	b.stats.BytesIn += bytesIn
	b.stats.Duplicates += duplicates
	b.statsMu.Unlock()
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
	return results, nil
}

// PublishWait is Publish with a deadline-bounded retry on backpressure:
// while the target partition is full it retries until a publish lands
// or the timeout passes, then returns the last ErrPartitionFull. Errors
// other than ErrPartitionFull return immediately.
func (b *Broker) PublishWait(topic string, key, value []byte, timeout time.Duration) (int, int64, error) {
	return publishWait(b, topic, key, value, timeout, defaultPace)
}

// PublishBatchWait is PublishBatch with the same deadline-bounded retry
// as PublishWait; the all-or-nothing batch contract makes the retry
// safe (a refused batch published nothing).
func (b *Broker) PublishBatchWait(topic string, msgs []Message, timeout time.Duration) ([]PubResult, error) {
	return publishBatchWait(b, topic, msgs, timeout, defaultPace)
}

// fullRetryInterval is the default pacing between blocked publishers'
// retries: capacity frees only when the slowest consumer group commits,
// so a tight spin would just burn the locks the consumers need. The TCP
// client can override (and jitter) it via Options.RetryPacing.
const fullRetryInterval = time.Millisecond

// pace yields successive sleeps between full-partition retries. The
// default is the fixed fullRetryInterval; transports with configured
// pacing supply a jittered source so a fleet of blocked publishers does
// not retry in lockstep.
type pace func() time.Duration

func defaultPace() time.Duration { return fullRetryInterval }

// publishWait implements the blocking publish over any Transport (the
// in-process broker and the TCP client share it).
func publishWait(t Transport, topic string, key, value []byte, timeout time.Duration, next pace) (int, int64, error) {
	deadline := time.Now().Add(timeout)
	for {
		part, off, err := t.Publish(topic, key, value)
		if err == nil || !errors.Is(err, ErrPartitionFull) {
			return part, off, err
		}
		if !time.Now().Before(deadline) {
			return 0, 0, err
		}
		time.Sleep(next())
	}
}

func publishBatchWait(t Transport, topic string, msgs []Message, timeout time.Duration, next pace) ([]PubResult, error) {
	deadline := time.Now().Add(timeout)
	for {
		res, err := t.PublishBatch(topic, msgs)
		if err == nil || !errors.Is(err, ErrPartitionFull) {
			return res, err
		}
		if !time.Now().Before(deadline) {
			return nil, err
		}
		time.Sleep(next())
	}
}

// Fetch returns up to max records from a partition starting at offset.
// It never blocks; an offset at the log end returns an empty slice. The
// records are deep copies: every key and value of one call is copied
// into one fresh arena, each record holding a full-slice-capped view of
// it, so callers own (and may mutate) what they get without touching
// the log.
func (b *Broker) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	return b.FetchWait(nil, topic, partition, offset, max, 0)
}

// WaitFetch is Fetch that blocks until at least one record is available
// or the deadline passes (returning an empty slice on timeout).
func (b *Broker) WaitFetch(topic string, partition int, offset int64, max int, timeout time.Duration) ([]Record, error) {
	return b.FetchWait(nil, topic, partition, offset, max, timeout)
}

// FetchWait unifies Fetch and WaitFetch behind the Transport interface,
// appending the records to dst: wait <= 0 is a non-blocking Fetch,
// wait > 0 blocks like WaitFetch. On timeout or error dst comes back
// unchanged.
func (b *Broker) FetchWait(dst []Record, topic string, partition int, offset int64, max int, wait time.Duration) ([]Record, error) {
	p, err := b.partition(topic, partition)
	if err != nil {
		return dst, err
	}
	if offset < 0 {
		return dst, fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	p.mu.Lock()
	if wait > 0 {
		deadline := time.Now().Add(wait)
		for p.end() <= offset {
			if b.isClosed() {
				p.mu.Unlock()
				return dst, ErrClosed
			}
			if !time.Now().Before(deadline) {
				p.mu.Unlock()
				return dst, nil
			}
			// Wake periodically to observe the deadline; Broadcast on
			// publish wakes us immediately in the common case.
			waitWithTimeout(p.cond, 5*time.Millisecond)
		}
	}
	end := p.end()
	if offset > end {
		p.mu.Unlock()
		return dst, fmt.Errorf("%w: %d beyond end %d", ErrBadOffset, offset, end)
	}
	if n := int64(max); n < end-offset {
		end = offset + n
	}
	size := 0
	for off := offset; off < end; off++ {
		e := p.at(off)
		size += len(e.key) + len(e.value)
	}
	var arena []byte
	if size > 0 {
		arena = make([]byte, 0, size)
	}
	for off := offset; off < end; off++ {
		e := p.at(off)
		dst = append(dst, Record{
			Topic:     topic,
			Partition: partition,
			Offset:    off,
			Key:       carve(&arena, e.key),
			Value:     carve(&arena, e.value),
			Timestamp: time.Unix(0, e.ns),
		})
	}
	p.mu.Unlock()

	if end > offset {
		b.statsMu.Lock()
		b.stats.MessagesOut += end - offset
		b.stats.BytesOut += int64(size)
		b.statsMu.Unlock()
	}
	return dst, nil
}

// waitWithTimeout waits on cond for at most d. The caller must hold the
// cond's lock.
func waitWithTimeout(cond *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	timer.Stop()
}

// EndOffset returns the next offset to be written in a partition.
func (b *Broker) EndOffset(topic string, partition int) (int64, error) {
	p, err := b.partition(topic, partition)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.end(), nil
}

// CommitOffset durably records a consumer group's next-to-read offset.
// Commits are monotonic per (group, topic, partition): an offset at or
// below the committed one is ignored, so a lagging committer can never
// rewind the group and cause replays.
func (b *Broker) CommitOffset(group, topic string, partition int, offset int64) error {
	if _, err := b.partition(topic, partition); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	gt, ok := b.offsets[group]
	if !ok {
		gt = make(map[string]map[int]int64)
		b.offsets[group] = gt
	}
	tp, ok := gt[topic]
	if !ok {
		tp = make(map[int]int64)
		gt[topic] = tp
	}
	if offset <= tp[partition] {
		return nil
	}
	if b.dur != nil {
		// Journal before updating memory; replay applies commits in
		// journal order, so the restored offset is the newest committed.
		if err := b.dur.journalCommit(group, topic, partition, offset); err != nil {
			return err
		}
	}
	tp[partition] = offset
	return nil
}

// CommittedOffset returns a group's committed offset, 0 when none.
func (b *Broker) CommittedOffset(group, topic string, partition int) (int64, error) {
	if _, err := b.partition(topic, partition); err != nil {
		return 0, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if gt, ok := b.offsets[group]; ok {
		if tp, ok := gt[topic]; ok {
			return tp[partition], nil
		}
	}
	return 0, nil
}

// Stats returns a snapshot of the traffic counters plus consumer-lag
// accounting: TotalBacklog/MaxBacklog are computed at snapshot time
// from the partition logs and the committed consumer offsets.
func (b *Broker) Stats() Stats {
	b.statsMu.Lock()
	s := b.stats
	b.statsMu.Unlock()
	b.mu.RLock()
	topics := make([]*topicLog, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	for _, t := range topics {
		for i, p := range t.partitions {
			p.mu.Lock()
			end := p.end()
			p.mu.Unlock()
			backlog := end - b.committedFloor(t.name, i)
			s.TotalBacklog += backlog
			if backlog > s.MaxBacklog {
				s.MaxBacklog = backlog
			}
		}
	}
	return s
}

// Backlog returns one topic's total unconsumed records: the sum over
// partitions of end offset minus the slowest committed consumer offset.
func (b *Broker) Backlog(topic string) (int64, error) {
	b.mu.RLock()
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	var total int64
	for i, p := range t.partitions {
		p.mu.Lock()
		end := p.end()
		p.mu.Unlock()
		total += end - b.committedFloor(t.name, i)
	}
	return total, nil
}

// Close marks the broker closed; publishes fail and blocked polls wake.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	topics := make([]*topicLog, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		for _, p := range t.partitions {
			p.mu.Lock()
			p.cond.Broadcast()
			if p.w != nil {
				p.w.Close()
				p.w = nil
			}
			p.mu.Unlock()
		}
	}
	if b.dur != nil {
		b.dur.close()
	}
}

func (b *Broker) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

func (b *Broker) partition(topic string, partition int) (*partitionLog, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if partition < 0 || partition >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoPartition, partition, len(t.partitions))
	}
	return t.partitions[partition], nil
}
