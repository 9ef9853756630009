package pubsub

import (
	"errors"
	"fmt"
	"time"
)

// This file is the columnar half of the publish path. A batch
// of N same-stride records travels and lands as two contiguous lanes
// (keys, values) instead of N (key, value) pairs: the TCP frame is one
// header plus two lane writes, the server hands the lanes to the broker
// as views into the request frame, and the broker's in-memory append
// copies each lane exactly once, storing records as subslices — the
// whole path performs a constant number of copies per batch where the
// row form performs a constant number per message.

// fnv1a32 is FNV-1a over b, matching hash/fnv's New32a exactly (the
// routing function of Publish/PublishBatch) without constructing a
// hasher per record.
func fnv1a32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// PublishColumns appends a columnar batch in one call — the lane form
// of PublishBatch, with the same routing (key-lane FNV hash; columnar
// records always carry keys) and the same all-or-nothing contract: the
// batch is fully applied or refused whole with ErrPartitionFull.
// Results are returned in record order. Both lanes are fully consumed
// before the call returns.
func (b *Broker) PublishColumns(topic string, cols Columns) ([]PubResult, error) {
	return b.publishCols(topic, cols, 0, 0)
}

// PublishColumnsSession is PublishColumns tagged with a producer
// session — the columnar form of PublishBatchSession, with the same
// per-partition dedup contract. Columnar records always carry keys, so
// no keyless check is needed.
func (b *Broker) PublishColumnsSession(topic string, cols Columns, pid, seq uint64) ([]PubResult, error) {
	if pid == 0 {
		return nil, fmt.Errorf("%w: zero producer id", ErrWire)
	}
	return b.publishCols(topic, cols, pid, seq)
}

func (b *Broker) publishCols(topic string, cols Columns, pid, seq uint64) ([]PubResult, error) {
	if err := cols.Validate(); err != nil {
		return nil, err
	}
	if cols.Count == 0 {
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

	results := make([]PubResult, cols.Count)
	for i := range results {
		results[i].Partition = partitionFor(cols.Key(i), len(t.partitions))
	}
	byPart := groupByPartition(results, len(t.partitions))

	// Two-phase apply, exactly as PublishBatch: lock every target
	// partition in ascending order, check all capacities, journal, then
	// append.
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
	// Skip partitions that already applied this (producer, sequence) —
	// see publishRows.
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
			b.stats.Rejected += int64(cols.Count)
			b.statsMu.Unlock()
			return nil, fmt.Errorf("%w: topic %q partition %d at capacity %d (batch of %d refused whole)",
				ErrPartitionFull, topic, part, capacity, cols.Count)
		}
	}
	for _, part := range parts {
		if _, isDup := dup[part]; isDup {
			continue
		}
		p := t.partitions[part]
		if p.w != nil {
			if err := journalColumns(p, now, cols, byPart.of(part), pid, seq); err != nil {
				unlockAll()
				return nil, err
			}
		}
	}
	// One copy per lane for the whole batch; the stored records are
	// subslices of the copies. Fetch deep-copies on the way out, so the
	// shared backing arrays are never exposed to consumers.
	keys := append([]byte(nil), cols.Keys...)
	vals := append([]byte(nil), cols.Vals...)
	var duplicates int64
	for _, part := range parts {
		p := t.partitions[part]
		idxs := byPart.of(part)
		if slot, isDup := dup[part]; isDup {
			fillDupResults(results, idxs, slot, seq)
			duplicates += int64(len(idxs))
			continue
		}
		first := p.end()
		for _, i := range idxs {
			results[i].Offset = p.end()
			p.append(entry{
				key:   keys[i*cols.KeyLen : (i+1)*cols.KeyLen : (i+1)*cols.KeyLen],
				value: vals[i*cols.ValLen : (i+1)*cols.ValLen : (i+1)*cols.ValLen],
				ns:    now.UnixNano(),
			})
		}
		p.recordSlice(pid, seq, first, len(idxs))
		p.cond.Broadcast()
	}
	unlockAll()

	b.statsMu.Lock()
	b.stats.MessagesIn += int64(cols.Count) - duplicates
	b.stats.BytesIn += int64(cols.Count-int(duplicates)) * int64(cols.KeyLen+cols.ValLen)
	b.stats.Duplicates += duplicates
	b.statsMu.Unlock()
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
	return results, nil
}

// PublishColumnsWait is PublishColumns with the deadline-bounded retry
// of PublishBatchWait; the all-or-nothing contract makes it safe.
func (b *Broker) PublishColumnsWait(topic string, cols Columns, timeout time.Duration) ([]PubResult, error) {
	return publishColumnsWait(b.PublishColumns, topic, cols, timeout, defaultPace)
}

func publishColumnsWait(pub func(string, Columns) ([]PubResult, error), topic string, cols Columns, timeout time.Duration, next pace) ([]PubResult, error) {
	deadline := time.Now().Add(timeout)
	for {
		res, err := pub(topic, cols)
		if err == nil || !errors.Is(err, ErrPartitionFull) {
			return res, err
		}
		if !time.Now().Before(deadline) {
			return nil, err
		}
		time.Sleep(next())
	}
}

// journalColumns frames and appends one partition's slice of a columnar
// batch as a single WAL batch, producing byte-identical journal records
// to journalBatch for the same (key, value) sequence — replay cannot
// tell which publish form wrote a record. The caller holds the
// partition lock.
func journalColumns(p *partitionLog, now time.Time, cols Columns, idxs []int, pid, seq uint64) error {
	per := 12 + cols.KeyLen + cols.ValLen
	if pid != 0 {
		per += sessionTagLen
	}
	total := len(idxs) * per
	if cap(p.encBuf) < total {
		p.encBuf = make([]byte, 0, total)
	}
	enc := p.encBuf[:0]
	payloads := make([][]byte, 0, len(idxs))
	for _, i := range idxs {
		start := len(enc)
		enc = appendSessionTag(enc, pid, seq)
		enc = appendPartitionRecord(enc, now, cols.Key(i), cols.Val(i))
		payloads = append(payloads, enc[start:len(enc):len(enc)])
	}
	p.encBuf = enc[:0]
	_, err := p.w.AppendBatch(payloads)
	return err
}

// PublishColumns mirrors Broker.PublishColumns over TCP: the whole
// batch travels as one opPublishBatchV2 frame — header plus two lane
// writes, no per-message slicing (chunked by rows only past
// maxBatchBytes). Both lanes are fully consumed before the call
// returns.
func (c *Client) PublishColumns(topic string, cols Columns) ([]PubResult, error) {
	if err := cols.Validate(); err != nil {
		return nil, err
	}
	if cols.Count == 0 {
		return nil, nil
	}
	stride := cols.KeyLen + cols.ValLen
	rows := maxBatchBytes / stride
	if rows < 1 {
		rows = 1
	}
	out := make([]PubResult, 0, cols.Count)
	e := getEnc()
	defer putEnc(e)
	for start := 0; start < cols.Count; start += rows {
		n := cols.Count - start
		if n > rows {
			n = rows
		}
		e.buf = e.buf[:0]
		e.byte(opPublishBatchV2)
		e.str(topic)
		e.uint32(uint32(n))
		e.uint32(uint32(cols.KeyLen))
		e.uint32(uint32(cols.ValLen))
		e.bytes(cols.Keys[start*cols.KeyLen : (start+n)*cols.KeyLen])
		e.bytes(cols.Vals[start*cols.ValLen : (start+n)*cols.ValLen])
		d, err := c.roundTrip(e.buf)
		if err != nil {
			return nil, err
		}
		cnt, err := d.uint32()
		if err != nil {
			return nil, err
		}
		if int(cnt) != n {
			return nil, fmt.Errorf("%w: columnar batch acked %d of %d records", ErrWire, cnt, n)
		}
		for i := 0; i < n; i++ {
			part, err := d.uint32()
			if err != nil {
				return nil, err
			}
			off, err := d.uint64()
			if err != nil {
				return nil, err
			}
			out = append(out, PubResult{Partition: int(part), Offset: int64(off)})
		}
	}
	return out, nil
}

// PublishColumnsWait mirrors Broker.PublishColumnsWait. As with
// PublishBatchWait, all-or-nothing holds per chunk for batches split
// past maxBatchBytes.
func (c *Client) PublishColumnsWait(topic string, cols Columns, timeout time.Duration) ([]PubResult, error) {
	return publishColumnsWait(c.PublishColumns, topic, cols, timeout, c.pace)
}

// handlePublishColumns decodes an opPublishBatchV2 frame. The lanes are
// views into the request frame (no copy); the broker copies each lane
// once during its in-memory append.
func (s *Server) handlePublishColumns(d *dec) []byte {
	topic, err := d.str()
	if err != nil {
		return respErr(err)
	}
	count, err := d.uint32()
	if err != nil {
		return respErr(err)
	}
	keyLen, err := d.uint32()
	if err != nil {
		return respErr(err)
	}
	valLen, err := d.uint32()
	if err != nil {
		return respErr(err)
	}
	keys, err := d.view()
	if err != nil {
		return respErr(err)
	}
	vals, err := d.view()
	if err != nil {
		return respErr(err)
	}
	cols := Columns{
		Count:  int(count),
		KeyLen: int(keyLen),
		ValLen: int(valLen),
		Keys:   keys,
		Vals:   vals,
	}
	// Validate re-checks lane geometry against the declared strides, so
	// a lying count or stride is caught here (the lane lengths on the
	// wire are the real bound, and the frame itself is capped).
	if err := cols.Validate(); err != nil {
		return respErr(err)
	}
	results, err := s.broker.PublishColumns(topic, cols)
	if err != nil {
		return respErr(err)
	}
	var e enc
	e.byte(0)
	e.uint32(uint32(len(results)))
	for _, r := range results {
		e.uint32(uint32(r.Partition))
		e.uint64(uint64(r.Offset))
	}
	return e.buf
}

// appendColumns is a test/tooling helper materializing a []Message into
// columnar lanes; it returns an error unless every key and value has
// the uniform stride columns require.
func appendColumns(msgs []Message) (Columns, error) {
	cols := Columns{Count: len(msgs)}
	if len(msgs) == 0 {
		return cols, nil
	}
	cols.KeyLen = len(msgs[0].Key)
	cols.ValLen = len(msgs[0].Value)
	for _, m := range msgs {
		if len(m.Key) != cols.KeyLen || len(m.Value) != cols.ValLen {
			return Columns{}, fmt.Errorf("%w: mixed strides in columnar batch", ErrWire)
		}
		cols.Keys = append(cols.Keys, m.Key...)
		cols.Vals = append(cols.Vals, m.Value...)
	}
	return cols, nil
}
