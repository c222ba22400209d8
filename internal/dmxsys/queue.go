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
	// owner.dir.peer names the queue in errors: the DRX holding it, "rx"
	// or "tx", and the peer accelerator it serves. The name is only
	// joined when an error needs it.
	owner, dir, peer string
	capacity         int64
	head             int64 // total bytes ever dequeued
	tail             int64 // total bytes ever enqueued
	// HighWater records the maximum occupancy reached, for reports.
	HighWater int64
}

func (q *DataQueue) name() string { return q.owner + "." + q.dir + "." + q.peer }

// Used reports the bytes currently enqueued.
func (q *DataQueue) Used() int64 { return q.tail - q.head }

// Free reports the remaining capacity.
func (q *DataQueue) Free() int64 { return q.capacity - q.Used() }

// Enqueue reserves space for an incoming payload (the point-to-point DMA
// target). It fails when the queue cannot hold the payload — the
// backpressure condition a driver must handle.
func (q *DataQueue) Enqueue(n int64) error {
	if n < 0 {
		return fmt.Errorf("dmxsys: %s: negative payload %d", q.name(), n)
	}
	if n > q.Free() {
		return fmt.Errorf("dmxsys: %s: queue full (%d used of %d, payload %d)",
			q.name(), q.Used(), q.capacity, n)
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
		return fmt.Errorf("dmxsys: %s: dequeue %d with %d used", q.name(), n, q.Used())
	}
	q.head += n
	return nil
}

// QueueSet is one DRX's statically partitioned queue memory: an RX/TX
// pair of QueuePairBytes per peer, provisioned at enumeration time. A
// pair holds no data until a hop moves some through it, so only the
// pairs a hop uses are built (Pair); the partition itself is the peer
// list and its size check.
type QueueSet struct {
	owner string
	peers []string
}

// QueuePair is the RX and TX queue a DRX keeps toward one peer.
type QueuePair struct {
	RX, TX DataQueue
}

// NewQueueSet partitions a DRX's queue memory across the given peers.
func NewQueueSet(owner string, peers []string) (QueueSet, error) {
	if len(peers) > MaxPeers {
		return QueueSet{}, fmt.Errorf("dmxsys: %s: %d peers exceed the %d the 8 GB partition supports",
			owner, len(peers), MaxPeers)
	}
	return QueueSet{owner: owner, peers: peers}, nil
}

// Pair sets up qp as the empty RX/TX pair toward peer.
func (qs QueueSet) Pair(peer string, qp *QueuePair) error {
	for _, p := range qs.peers {
		if p == peer {
			qp.RX = DataQueue{owner: qs.owner, dir: "rx", peer: peer, capacity: QueuePairBytes}
			qp.TX = DataQueue{owner: qs.owner, dir: "tx", peer: peer, capacity: QueuePairBytes}
			return nil
		}
	}
	return fmt.Errorf("dmxsys: %s: no queue pair for peer %q", qs.owner, peer)
}
