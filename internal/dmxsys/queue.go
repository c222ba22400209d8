package dmxsys

import "fmt"

// Data-queue provisioning constants from Sec. V: each DRX reserves 8 GB
// of its device memory for data queues, statically partitioned into one
// RX/TX pair of 100 MB queues per peer, which supports up to 40
// accelerators per server.
const (
	// QueueMemoryBytes is the device memory a DRX provisions for queues.
	QueueMemoryBytes = 8 << 30
	// QueuePairBytes is the size of one RX or TX data queue.
	QueuePairBytes = 100 << 20
	// MaxPeers is the accelerator count the provisioning supports
	// (8 GB / (2 × 100 MB) = 40, the paper's figure).
	MaxPeers = QueueMemoryBytes / (2 * QueuePairBytes)
)

// DataQueue is one direction of a DRX peer queue: a ring of buffers
// tracked by head/tail byte offsets, as the DRX driver maintains them.
type DataQueue struct {
	name     string
	capacity int64
	head     int64 // total bytes ever dequeued
	tail     int64 // total bytes ever enqueued
	// HighWater records the maximum occupancy reached, for reports.
	HighWater int64
}

// Used reports the bytes currently enqueued.
func (q *DataQueue) Used() int64 { return q.tail - q.head }

// Free reports the remaining capacity.
func (q *DataQueue) Free() int64 { return q.capacity - q.Used() }

// Enqueue reserves space for an incoming payload (the point-to-point DMA
// target). It fails when the queue cannot hold the payload — the
// backpressure condition a driver must handle.
func (q *DataQueue) Enqueue(n int64) error {
	if n < 0 {
		return fmt.Errorf("dmxsys: %s: negative payload %d", q.name, n)
	}
	if n > q.Free() {
		return fmt.Errorf("dmxsys: %s: queue full (%d used of %d, payload %d)",
			q.name, q.Used(), q.capacity, n)
	}
	q.tail += n
	if u := q.Used(); u > q.HighWater {
		q.HighWater = u
	}
	return nil
}

// Dequeue releases a consumed payload.
func (q *DataQueue) Dequeue(n int64) error {
	if n < 0 || n > q.Used() {
		return fmt.Errorf("dmxsys: %s: dequeue %d with %d used", q.name, n, q.Used())
	}
	q.head += n
	return nil
}

// QueueSet is one DRX's statically partitioned queue memory: an RX/TX
// pair per peer, allocated at enumeration time.
type QueueSet struct {
	owner string
	rx    map[string]*DataQueue
	tx    map[string]*DataQueue
}

// NewQueueSet partitions a DRX's queue memory across the given peers.
func NewQueueSet(owner string, peers []string) (*QueueSet, error) {
	if len(peers) > MaxPeers {
		return nil, fmt.Errorf("dmxsys: %s: %d peers exceed the %d the 8 GB partition supports",
			owner, len(peers), MaxPeers)
	}
	qs := &QueueSet{
		owner: owner,
		rx:    make(map[string]*DataQueue, len(peers)),
		tx:    make(map[string]*DataQueue, len(peers)),
	}
	for _, p := range peers {
		qs.rx[p] = &DataQueue{name: owner + ".rx." + p, capacity: QueuePairBytes}
		qs.tx[p] = &DataQueue{name: owner + ".tx." + p, capacity: QueuePairBytes}
	}
	return qs, nil
}

// RX returns the receive queue for a peer.
func (qs *QueueSet) RX(peer string) (*DataQueue, error) {
	q, ok := qs.rx[peer]
	if !ok {
		return nil, fmt.Errorf("dmxsys: %s: no RX queue for peer %q", qs.owner, peer)
	}
	return q, nil
}

// TX returns the transmit queue for a peer.
func (qs *QueueSet) TX(peer string) (*DataQueue, error) {
	q, ok := qs.tx[peer]
	if !ok {
		return nil, fmt.Errorf("dmxsys: %s: no TX queue for peer %q", qs.owner, peer)
	}
	return q, nil
}
