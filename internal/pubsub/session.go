package pubsub

import "fmt"

// This file is the wire half of producer sessions (idempotent
// at-least-once publish): the client-side session opcodes and their
// server handlers. The broker half — per-partition (producer, sequence)
// dedup slots journaled with the records — lives in broker.go,
// columnar.go, and durable.go; the retrying front-end is Producer.

// decodePubResults reads the count-prefixed PubResult list every batch
// publish response carries, checking the ack count against want.
func decodePubResults(d *dec, want int) ([]PubResult, error) {
	cnt, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if int(cnt) != want {
		return nil, fmt.Errorf("%w: batch acked %d of %d messages", ErrWire, cnt, want)
	}
	out := make([]PubResult, 0, want)
	for i := 0; i < want; i++ {
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
	return out, nil
}

// PublishBatchSession mirrors Broker.PublishBatchSession over TCP. The
// whole batch travels as exactly one frame — a session sequence covers
// one atomic broker batch, so this method never chunks; callers
// (Producer) bound batch size and assign one sequence per chunk.
func (c *Client) PublishBatchSession(topic string, msgs []Message, pid, seq uint64) ([]PubResult, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	e := getEnc()
	defer putEnc(e)
	e.byte(opPublishBatchSession)
	e.str(topic)
	e.uint64(pid)
	e.uint64(seq)
	e.uint32(uint32(len(msgs)))
	for i := range msgs {
		encodeOptBytes(e, msgs[i].Key)
		e.bytes(msgs[i].Value)
	}
	d, err := c.roundTrip(e.buf)
	if err != nil {
		return nil, err
	}
	return decodePubResults(d, len(msgs))
}

// PublishColumnsSession mirrors Broker.PublishColumnsSession over TCP —
// one frame, never chunked.
func (c *Client) PublishColumnsSession(topic string, cols Columns, pid, seq uint64) ([]PubResult, error) {
	if err := cols.Validate(); err != nil {
		return nil, err
	}
	if cols.Count == 0 {
		return nil, nil
	}
	e := getEnc()
	defer putEnc(e)
	e.byte(opPublishColumnsSession)
	e.str(topic)
	e.uint64(pid)
	e.uint64(seq)
	e.uint32(uint32(cols.Count))
	e.uint32(uint32(cols.KeyLen))
	e.uint32(uint32(cols.ValLen))
	e.bytes(cols.Keys)
	e.bytes(cols.Vals)
	d, err := c.roundTrip(e.buf)
	if err != nil {
		return nil, err
	}
	return decodePubResults(d, cols.Count)
}

// handlePublishBatchSession decodes an opPublishBatchSession frame:
// topic | u64 pid | u64 seq | u32 count | (optional key, value)*.
func (s *Server) handlePublishBatchSession(d *dec) []byte {
	topic, err := d.str()
	if err != nil {
		return respErr(err)
	}
	pid, err := d.uint64()
	if err != nil {
		return respErr(err)
	}
	seq, err := d.uint64()
	if err != nil {
		return respErr(err)
	}
	n, err := d.uint32()
	if err != nil {
		return respErr(err)
	}
	msgs := make([]Message, 0, min(int(n), 4096))
	for i := uint32(0); i < n; i++ {
		key, err := decodeOptBytes(d)
		if err != nil {
			return respErr(err)
		}
		val, err := d.bytes()
		if err != nil {
			return respErr(err)
		}
		msgs = append(msgs, Message{Key: key, Value: val})
	}
	results, err := s.broker.PublishBatchSession(topic, msgs, pid, seq)
	if err != nil {
		return respErr(err)
	}
	return encodePubResults(results)
}

// handlePublishColumnsSession decodes an opPublishColumnsSession frame:
// topic | u64 pid | u64 seq | u32 count | u32 keyLen | u32 valLen |
// keys | vals. The lanes are views into the request frame, exactly like
// the plain columnar handler.
func (s *Server) handlePublishColumnsSession(d *dec) []byte {
	topic, err := d.str()
	if err != nil {
		return respErr(err)
	}
	pid, err := d.uint64()
	if err != nil {
		return respErr(err)
	}
	seq, err := d.uint64()
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
	if err := cols.Validate(); err != nil {
		return respErr(err)
	}
	results, err := s.broker.PublishColumnsSession(topic, cols, pid, seq)
	if err != nil {
		return respErr(err)
	}
	return encodePubResults(results)
}

func encodePubResults(results []PubResult) []byte {
	var e enc
	e.byte(0)
	e.uint32(uint32(len(results)))
	for _, r := range results {
		e.uint32(uint32(r.Partition))
		e.uint64(uint64(r.Offset))
	}
	return e.buf
}
