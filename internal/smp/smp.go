package smp

import (
	"errors"
	"fmt"

	"butterfly/internal/chrysalis"
	"butterfly/internal/fault"
	"butterfly/internal/sim"
)

// Config tunes an SMP family.
type Config struct {
	// UseSARCache enables the cache of mapped message buffers that delays
	// unmap operations as long as possible.
	UseSARCache bool
	// SARCacheSize is the number of peer buffers a member keeps mapped
	// (bounded by the SARs the process can spare).
	SARCacheSize int
	// BufferTouchNs is the buffer management cost on a SAR-cache hit
	// (pointer juggling instead of a kernel map call).
	BufferTouchNs int64
}

// DefaultConfig returns the standard SMP tuning with the SAR cache enabled.
func DefaultConfig() Config {
	return Config{
		UseSARCache:   true,
		SARCacheSize:  16,
		BufferTouchNs: 250 * sim.Microsecond,
	}
}

// Message is an asynchronous SMP message. Payload is carried natively; Words
// is what the machine was charged for.
type Message struct {
	// From is the sender: a sibling index, ParentID for a message from the
	// family's creator, or ^childIndex for a message from a child family's
	// member (see Member.SendUp).
	From    int
	Tag     int
	Words   int
	Payload any
}

// ParentID is the pseudo-member index of the family's creator.
const ParentID = -1

// Family is a hierarchical collection of heavyweight processes with a static
// communication topology.
type Family struct {
	OS      *chrysalis.OS
	Name    string
	Topo    Topology
	Cfg     Config
	Members []*Member

	parent *Member // member of the parent family that created us, or nil
	stats  Stats
}

// Stats aggregates family-level counters.
type Stats struct {
	MessagesSent uint64
	WordsSent    uint64
	SARMapOps    uint64 // map/unmap kernel calls performed
	SARCacheHits uint64
}

// Member is one process of a family.
type Member struct {
	ID  int
	Fam *Family
	Pr  *chrysalis.Process
	P   *sim.Proc

	node     int
	inbox    *chrysalis.DualQueue
	mailbox  []Message
	free     []int
	sarCache *sarCache
}

// Node returns the machine node the member runs on.
func (m *Member) Node() int { return m.node }

// ErrNotNeighbours is returned for sends outside the family topology.
var ErrNotNeighbours = errors.New("smp: destination is not a neighbour in the family topology")

// ErrPeerDead is returned when the destination member's node has failed.
var ErrPeerDead = errors.New("smp: peer's node has failed")

// NewFamily creates an n-member family on the given nodes (one member per
// node, in order; the fixed allocation algorithm the paper notes "can lead
// to an imbalance in processor load"). creator, if non-nil, pays process
// creation costs serially, one member at a time — exactly the cost Crowd
// Control exists to parallelize. body runs as each member.
func NewFamily(os *chrysalis.OS, creator *Member, name string, nodes []int, topo Topology, cfg Config, body func(m *Member)) (*Family, error) {
	n := len(nodes)
	if err := topo.Validate(n); err != nil {
		return nil, err
	}
	if cfg.SARCacheSize <= 0 {
		cfg.SARCacheSize = DefaultConfig().SARCacheSize
	}
	if cfg.BufferTouchNs == 0 {
		cfg.BufferTouchNs = DefaultConfig().BufferTouchNs
	}
	f := &Family{OS: os, Name: name, Topo: topo, Cfg: cfg}
	if creator != nil {
		f.parent = creator
	}
	var creatorProc *sim.Proc
	if creator != nil {
		creatorProc = creator.P
	}
	for i := 0; i < n; i++ {
		m := &Member{ID: i, Fam: f, node: nodes[i]}
		m.inbox = os.NewDualQueue(nodes[i], nil)
		m.sarCache = newSARCache(cfg.SARCacheSize)
		f.Members = append(f.Members, m)
		pr, err := os.MakeProcess(creatorProc, fmt.Sprintf("%s[%d]", name, i), nodes[i], 64, func(self *chrysalis.Process) {
			m.Pr = self
			m.P = self.P
			self.Model = m
			body(m)
		})
		if err != nil {
			return nil, fmt.Errorf("smp: member %d: %w", i, err)
		}
		m.Pr = pr
	}
	return f, nil
}

// Stats returns a copy of the family counters.
func (f *Family) Stats() Stats { return f.stats }

// deliver places msg into dst's mailbox and posts its inbox. The sender
// pays: buffer management (SAR cache or a 1 ms map plus eventual unmap), a
// block copy of the payload to the receiver's node, and the enqueue. Under
// fault injection it returns ErrPeerDead for a failed destination and the
// *fault.RefError of a reference that failed mid-delivery.
func (f *Family) deliver(sender *sim.Proc, dst *Member, msg Message) (err error) {
	defer fault.CatchRef(&err)
	os := f.OS
	if os.M.NodeFailed(dst.node) {
		return ErrPeerDead
	}
	// Buffer management on the sender side.
	key := bufferKey{family: f, member: dst.ID}
	var cache *sarCache
	if src := memberOf(sender); src != nil && f.Cfg.UseSARCache {
		cache = src.sarCache
	}
	if cache != nil {
		if cache.touch(key) {
			f.stats.SARCacheHits++
			sender.Advance(f.Cfg.BufferTouchNs)
		} else {
			if evicted := cache.insert(key); evicted {
				// Delayed unmap finally happens.
				f.stats.SARMapOps++
				sender.Advance(os.Costs.UnmapObj)
			}
			f.stats.SARMapOps++
			sender.Advance(os.Costs.MapObj)
		}
	} else {
		// No cache: map before the copy, unmap after.
		f.stats.SARMapOps += 2
		sender.Advance(os.Costs.MapObj)
		defer sender.Advance(os.Costs.UnmapObj)
	}
	// Copy payload into the buffer on the receiver's node.
	if msg.Words > 0 {
		os.M.BlockCopy(sender, sender.Node, dst.node, msg.Words)
	}
	// Post the descriptor.
	if pr := os.M.Probe(); pr != nil {
		pr.MsgSend(sender.LocalNow(), sender.ID, dst.node, msg.Words, "smp")
	}
	slot := dst.put(msg)
	dst.inbox.Enqueue(sender, uint32(slot))
	f.stats.MessagesSent++
	f.stats.WordsSent += uint64(msg.Words)
	return nil
}

// memberOf maps a simulated process back to its SMP member, if any.
func memberOf(p *sim.Proc) *Member {
	if pr := chrysalis.Self(p); pr != nil {
		m, _ := pr.Model.(*Member)
		return m
	}
	return nil
}

// put stores a message and returns its mailbox slot.
func (m *Member) put(msg Message) int {
	if n := len(m.free); n > 0 {
		slot := m.free[n-1]
		m.free = m.free[:n-1]
		m.mailbox[slot] = msg
		return slot
	}
	m.mailbox = append(m.mailbox, msg)
	return len(m.mailbox) - 1
}

// Send transmits an asynchronous message to sibling dst. Only neighbours in
// the family topology are legal destinations.
func (m *Member) Send(dst, tag, words int, payload any) error {
	if dst < 0 || dst >= len(m.Fam.Members) {
		return fmt.Errorf("smp: no member %d", dst)
	}
	if !m.Fam.Topo.Connected(m.ID, dst, len(m.Fam.Members)) {
		return ErrNotNeighbours
	}
	return m.Fam.deliver(m.P, m.Fam.Members[dst], Message{From: m.ID, Tag: tag, Words: words, Payload: payload})
}

// SendRetry is Send with bounded retransmission of transient failures
// (packet loss, parity): up to attempts tries before giving up with the
// last error. A dead peer fails immediately — retrying cannot revive it.
func (m *Member) SendRetry(dst, tag, words int, payload any, attempts int) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		err = m.Send(dst, tag, words, payload)
		if err == nil {
			return nil
		}
		var re *fault.RefError
		if !errors.As(err, &re) || re.Kind == fault.NodeDown {
			return err // permanent: dead peer, bad destination
		}
	}
	return err
}

// SendUp transmits to the parent-family member that created this family.
func (m *Member) SendUp(tag, words int, payload any) error {
	if m.Fam.parent == nil {
		return errors.New("smp: family has no parent")
	}
	pf := m.Fam.parent.Fam
	return pf.deliver(m.P, m.Fam.parent, Message{From: ^m.ID, Tag: tag, Words: words, Payload: payload})
}

// SendDown lets a member that created a child family message one of its
// members.
func (m *Member) SendDown(child *Family, dst, tag, words int, payload any) error {
	if child.parent != m {
		return errors.New("smp: not the creator of that family")
	}
	return child.deliver(m.P, child.Members[dst], Message{From: ParentID, Tag: tag, Words: words, Payload: payload})
}

// Recv blocks until a message arrives and returns it. Messages from any
// legal source (sibling, parent, child family) arrive on the same inbox in
// delivery order.
func (m *Member) Recv() Message {
	slot := int(m.inbox.Dequeue(m.P))
	msg := m.mailbox[slot]
	m.free = append(m.free, slot)
	if pr := m.Fam.OS.M.Probe(); pr != nil {
		pr.MsgRecv(m.P.LocalNow(), m.P.ID, m.node, msg.Words, "smp")
	}
	return msg
}

// RecvTimeout is Recv bounded by d nanoseconds of virtual time: ok is false
// if no message arrived before the deadline. It is how a family survives a
// lost peer — a member waiting on a sender whose node died resumes instead
// of blocking forever.
func (m *Member) RecvTimeout(d int64) (msg Message, ok bool) {
	v, ok := m.inbox.DequeueTimeout(m.P, d)
	if !ok {
		return Message{}, false
	}
	slot := int(v)
	msg = m.mailbox[slot]
	m.free = append(m.free, slot)
	if pr := m.Fam.OS.M.Probe(); pr != nil {
		pr.MsgRecv(m.P.LocalNow(), m.P.ID, m.node, msg.Words, "smp")
	}
	return msg, true
}

// TryRecv returns the next message without blocking; ok is false if none is
// pending.
func (m *Member) TryRecv() (msg Message, ok bool) {
	d, ok := m.inbox.TryDequeue(m.P)
	if !ok {
		return Message{}, false
	}
	slot := int(d)
	msg = m.mailbox[slot]
	m.free = append(m.free, slot)
	if pr := m.Fam.OS.M.Probe(); pr != nil {
		pr.MsgRecv(m.P.LocalNow(), m.P.ID, m.node, msg.Words, "smp")
	}
	return msg, true
}

// bufferKey identifies a mapped message buffer (one per destination).
type bufferKey struct {
	family *Family
	member int
}

// sarCache is the LRU cache of mapped buffers.
type sarCache struct {
	cap   int
	order []bufferKey // LRU at the front
}

func newSARCache(capacity int) *sarCache {
	return &sarCache{cap: capacity}
}

// touch reports a hit and refreshes recency.
func (c *sarCache) touch(k bufferKey) bool {
	for i, e := range c.order {
		if e == k {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = k
			return true
		}
	}
	return false
}

// insert adds k, reporting whether an eviction (delayed unmap) occurred.
func (c *sarCache) insert(k bufferKey) (evicted bool) {
	if len(c.order) >= c.cap {
		copy(c.order, c.order[1:])
		c.order[len(c.order)-1] = k
		return true
	}
	c.order = append(c.order, k)
	return false
}
