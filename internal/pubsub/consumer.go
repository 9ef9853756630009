package pubsub

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"
)

// Consumer reads one or more topics on behalf of a consumer group,
// tracking in-memory positions and committing them to the broker on
// demand — the subset of Kafka's consumer API the aggregator needs. It
// works over any Transport, so the same consumer code drains an
// in-process broker or a remote TCP proxy.
type Consumer struct {
	t         Transport
	group     string
	positions map[string]map[int]int64 // topic → partition → next offset
	// order is every subscribed (topic, partition) in poll order:
	// topics sorted, partitions ascending. Fixed at construction.
	order []topicPart
	// closed, when non-nil, reports that the backing broker shut down;
	// PollWait uses it to stop instead of spinning until its deadline.
	closed func() bool
}

// NewConsumer subscribes a group member to an in-process broker's
// topics, resuming from the group's committed offsets.
func NewConsumer(b *Broker, group string, topics ...string) (*Consumer, error) {
	c, err := NewTransportConsumer(b, group, topics...)
	if err != nil {
		return nil, err
	}
	c.closed = b.isClosed
	return c, nil
}

// NewTransportConsumer subscribes a group member to the given topics
// over any Transport, resuming from the group's committed offsets.
func NewTransportConsumer(t Transport, group string, topics ...string) (*Consumer, error) {
	if group == "" {
		return nil, fmt.Errorf("pubsub: empty consumer group")
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("pubsub: no topics to subscribe")
	}
	c := &Consumer{t: t, group: group, positions: make(map[string]map[int]int64)}
	for _, topic := range topics {
		nparts, err := t.Partitions(topic)
		if err != nil {
			return nil, err
		}
		pos := make(map[int]int64, nparts)
		for p := 0; p < nparts; p++ {
			off, err := t.CommittedOffset(group, topic, p)
			if err != nil {
				return nil, err
			}
			pos[p] = off
		}
		c.positions[topic] = pos
	}
	for _, topic := range c.sortedTopics() {
		for _, p := range sortedPartitions(c.positions[topic]) {
			c.order = append(c.order, topicPart{topic, p})
		}
	}
	return c, nil
}

type topicPart struct {
	topic string
	part  int
}

// Poll returns up to max records across all subscribed partitions,
// advancing in-memory positions. It returns immediately with whatever is
// available; an empty slice means the consumer is caught up.
func (c *Consumer) Poll(max int) ([]Record, error) { return c.AppendPoll(nil, max) }

// AppendPoll is Poll appending into dst: a drain loop that passes the
// same buffer back every time (dst[:0]) reuses its record headers, so
// a steady-state poll allocates only each non-empty fetch's payload
// buffer. The appended records own their keys and values. On error the
// records fetched before the failure stay appended, their positions
// advanced.
func (c *Consumer) AppendPoll(dst []Record, max int) ([]Record, error) {
	if max <= 0 {
		return dst, fmt.Errorf("pubsub: non-positive poll size %d", max)
	}
	base := len(dst)
	for _, tp := range c.order {
		room := max - (len(dst) - base)
		if room <= 0 {
			break
		}
		pos := c.positions[tp.topic]
		n := len(dst)
		var err error
		dst, err = c.t.FetchWait(dst, tp.topic, tp.part, pos[tp.part], room, 0)
		if len(dst) > n {
			pos[tp.part] = dst[len(dst)-1].Offset + 1
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// PollWait is Poll that blocks up to timeout for the first record.
// After an empty sweep it parks in a sliced blocking fetch on its
// first subscribed partition rather than spinning — over the TCP
// transport that is one round-trip per wait slice instead of one per
// partition per spin (a record arriving on another partition is picked
// up by the re-sweep after at most one slice).
func (c *Consumer) PollWait(max int, timeout time.Duration) ([]Record, error) {
	return c.AppendPollWait(nil, max, timeout)
}

// AppendPollWait is PollWait appending into dst, with AppendPoll's
// buffer-reuse contract.
func (c *Consumer) AppendPollWait(dst []Record, max int, timeout time.Duration) ([]Record, error) {
	const slice = 20 * time.Millisecond
	deadline := time.Now().Add(timeout)
	base := len(dst)
	for {
		var err error
		dst, err = c.AppendPoll(dst, max)
		if err != nil || len(dst) > base {
			return dst, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return dst, nil
		}
		if c.closed != nil && c.closed() {
			return dst, ErrClosed
		}
		if remain > slice {
			remain = slice
		}
		tp := c.order[0]
		pos := c.positions[tp.topic]
		dst, err = c.t.FetchWait(dst, tp.topic, tp.part, pos[tp.part], max, remain)
		if err != nil {
			return dst, err
		}
		if len(dst) > base {
			pos[tp.part] = dst[len(dst)-1].Offset + 1
			return dst, nil
		}
	}
}

// Positions returns a deep copy of the consumer's next-read offsets —
// the cut a checkpointer records alongside the state derived from
// everything below it.
func (c *Consumer) Positions() map[string]map[int]int64 {
	out := make(map[string]map[int]int64, len(c.positions))
	for topic, pos := range c.positions {
		tp := make(map[int]int64, len(pos))
		for p, off := range pos {
			tp[p] = off
		}
		out[topic] = tp
	}
	return out
}

// Seek overrides the next-read offset of one subscribed partition — the
// restore half of Positions: a restarted consumer resumes from a
// checkpoint's recorded cut instead of the broker's committed offsets.
func (c *Consumer) Seek(topic string, partition int, offset int64) error {
	pos, ok := c.positions[topic]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if _, ok := pos[partition]; !ok {
		return fmt.Errorf("%w: %d", ErrNoPartition, partition)
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	pos[partition] = offset
	return nil
}

// AppendPositions serializes the consumer's next-read offsets to buf in
// a deterministic order (topics sorted, partitions ascending) — the
// checkpoint-record form of Positions, decoded by SeekPositions. Both
// the in-process System checkpoint and the privapprox-node aggregator
// checkpoint use this one codec.
func (c *Consumer) AppendPositions(buf []byte) []byte {
	topics := c.sortedTopics()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(topics)))
	for _, topic := range topics {
		pos := c.positions[topic]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(topic)))
		buf = append(buf, topic...)
		parts := sortedPartitions(pos)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(parts)))
		for _, p := range parts {
			buf = binary.BigEndian.AppendUint32(buf, uint32(p))
			buf = binary.BigEndian.AppendUint64(buf, uint64(pos[p]))
		}
	}
	return buf
}

// SeekPositions decodes an AppendPositions section, seeks every
// recorded partition, and returns the unconsumed remainder of data.
func (c *Consumer) SeekPositions(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("pubsub: short positions record")
	}
	ntopics := binary.BigEndian.Uint32(data)
	data = data[4:]
	for t := uint32(0); t < ntopics; t++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("pubsub: short positions record")
		}
		tlen := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < tlen+4 {
			return nil, fmt.Errorf("pubsub: short positions record")
		}
		topic := string(data[:tlen])
		data = data[tlen:]
		nparts := binary.BigEndian.Uint32(data)
		data = data[4:]
		for p := uint32(0); p < nparts; p++ {
			if len(data) < 12 {
				return nil, fmt.Errorf("pubsub: short positions record")
			}
			part := binary.BigEndian.Uint32(data)
			off := int64(binary.BigEndian.Uint64(data[4:12]))
			data = data[12:]
			if err := c.Seek(topic, int(part), off); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Commit persists the current positions to the broker so another group
// member can resume after a failure.
func (c *Consumer) Commit() error {
	for topic, pos := range c.positions {
		for p, off := range pos {
			if err := c.t.CommitOffset(c.group, topic, p, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lag returns the total number of unread records across subscriptions.
func (c *Consumer) Lag() (int64, error) {
	var lag int64
	for topic, pos := range c.positions {
		for p, off := range pos {
			end, err := c.t.EndOffset(topic, p)
			if err != nil {
				return 0, err
			}
			lag += end - off
		}
	}
	return lag, nil
}

func (c *Consumer) sortedTopics() []string {
	out := make([]string, 0, len(c.positions))
	for t := range c.positions {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func sortedPartitions(pos map[int]int64) []int {
	out := make([]int, 0, len(pos))
	for p := range pos {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
