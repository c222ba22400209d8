package obs

// Time is virtual simulation time in picoseconds. It mirrors sim.Time's
// unit without importing it: obs sits at the bottom of the import graph
// so that internal/sim itself can emit events.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Kind classifies how an event occupies the timeline.
type Kind uint8

// Event kinds.
const (
	// KindSpan is a closed interval [TS, TS+Dur] on one track.
	KindSpan Kind = iota
	// KindInstant is a point event on one track.
	KindInstant
	// KindFlowBegin opens a cross-track arrow (paired by Flow id).
	KindFlowBegin
	// KindFlowEnd closes a cross-track arrow (paired by Flow id).
	KindFlowEnd
	// KindCounter samples a numeric series (Value) on one track.
	KindCounter
)

var kindNames = [...]string{
	KindSpan:      "span",
	KindInstant:   "instant",
	KindFlowBegin: "flow-begin",
	KindFlowEnd:   "flow-end",
	KindCounter:   "counter",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(?)"
}

// Type is the semantic vocabulary of the DMX protocol: each value names
// one moment (or interval) of the paper's Fig. 10 interaction sequence,
// plus the resource-level series the simulation kernel emits.
type Type uint8

// Event types. The Step* constants below map the protocol types onto the
// 11 numbered steps of Fig. 10.
const (
	// TypeGeneric is an untyped event (renderers show the Name verbatim).
	TypeGeneric Type = iota
	// TypeInputDMA is the request payload shipping host → first
	// accelerator.
	TypeInputDMA
	// TypeKernelEnqueued marks a kernel submitted to its accelerator.
	TypeKernelEnqueued
	// TypeKernelDone marks a kernel completion interrupt (Fig. 10 ①②).
	TypeKernelDone
	// TypeQueueDMA is the local accel → DRX RX-queue move (Fig. 10 ③④).
	TypeQueueDMA
	// TypeRestructure is DRX restructuring execution (Fig. 10 ⑤–⑦).
	TypeRestructure
	// TypeHostRestructure is restructuring on the host CPU (baselines).
	TypeHostRestructure
	// TypeTXReady marks the restructured payload landing in the TX queue
	// and the completion interrupt (Fig. 10 ⑧).
	TypeTXReady
	// TypeP2PDMA is the peer-to-peer fabric DMA to the next accelerator
	// (Fig. 10 ⑨⑩).
	TypeP2PDMA
	// TypeHostDMA is a CPU-mediated DMA leg (device→host or host→device)
	// of the Multi-Axl / Integrated baselines — the movement DMX removes.
	TypeHostDMA
	// TypeOutputDMA is the final result returning device → host.
	TypeOutputDMA
	// TypeService is a sim.Server occupancy span (one job in service).
	TypeService
	// TypeOccupancy is a sim.Channel in-flight-transfer counter sample.
	TypeOccupancy
	// TypePhase is an application-timeline attribution span; Phase says
	// which runtime component (kernel/restructure/movement) the interval
	// belongs to.
	TypePhase
	// TypeRecv anchors the destination end of a DMA flow arrow.
	TypeRecv
	// TypeFault marks a station (DRX unit, link, accelerator) entering
	// an injected incident window; TypeRepair marks its recovery.
	TypeFault
	TypeRepair
	// TypeRetry marks a stage operation being re-attempted after a
	// fault or watchdog timeout.
	TypeRetry
	// TypeTimeout marks a stage watchdog firing on a stalled operation.
	TypeTimeout
	// TypeStall marks a kernel submission waiting out an accelerator
	// stall window.
	TypeStall
	// TypeDegrade marks a hop rerouting to CPU-mediated restructuring
	// because its DRX path is unavailable.
	TypeDegrade
	// TypeAbandon marks a request retiring unfinished after exhausting
	// its retry budget.
	TypeAbandon
	// TypeReject marks a request refused at admission because its app
	// was already at the configured outstanding-request limit.
	TypeReject
	// TypeBatch marks a batching window closing: Bytes carries the
	// number of requests the batch coalesced.
	TypeBatch
	// TypeRoute marks a cluster-router decision: Peer carries the chosen
	// host, Name the routing policy, Bytes the host's outstanding count
	// after the assignment (-1 when every host was drained or full and
	// the request was rejected at the router).
	TypeRoute
)

var typeNames = [...]string{
	TypeGeneric:         "generic",
	TypeInputDMA:        "input-dma",
	TypeKernelEnqueued:  "kernel-enqueued",
	TypeKernelDone:      "kernel-done",
	TypeQueueDMA:        "queue-dma",
	TypeRestructure:     "restructure",
	TypeHostRestructure: "host-restructure",
	TypeTXReady:         "tx-ready",
	TypeP2PDMA:          "p2p-dma",
	TypeHostDMA:         "host-dma",
	TypeOutputDMA:       "output-dma",
	TypeService:         "service",
	TypeOccupancy:       "occupancy",
	TypePhase:           "phase",
	TypeRecv:            "recv",
	TypeFault:           "fault",
	TypeRepair:          "repair",
	TypeRetry:           "retry",
	TypeTimeout:         "timeout",
	TypeStall:           "stall",
	TypeDegrade:         "degrade",
	TypeAbandon:         "abandon",
	TypeReject:          "reject",
	TypeBatch:           "batch",
	TypeRoute:           "route",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "Type(?)"
}

// Fig. 10 step ids. The paper numbers the bump-in-the-wire hop protocol
// ①–⑪; Event.Step carries the id so a trace can be read against the
// figure. Types map onto steps as follows (0 = not a protocol step).
const (
	StepKernelDone  = 1  // ① producer kernel completes
	StepRXDMA       = 3  // ③④ local DMA into the DRX RX queue
	StepRestructure = 5  // ⑤–⑦ DRX reads RX, restructures, writes TX
	StepTXReady     = 8  // ⑧ TX-ready interrupt
	StepP2PDMA      = 9  // ⑨⑩ P2P DMA through the fabric to the peer
	StepNextKernel  = 11 // ⑪ consumer kernel fires
)

// Phase attributes a span to one of the three runtime components of the
// paper's breakdown figures.
type Phase uint8

// Runtime phases.
const (
	PhaseNone Phase = iota
	PhaseKernel
	PhaseRestructure
	PhaseMovement
)

var phaseNames = [...]string{
	PhaseNone:        "none",
	PhaseKernel:      "kernel",
	PhaseRestructure: "restructure",
	PhaseMovement:    "movement",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "Phase(?)"
}

// Event is one observation. Events are small value types; producers fill
// the fields that apply and leave the rest zero.
type Event struct {
	// Seq is the emission order within one Recorder (assigned by Emit).
	Seq uint64
	// TS is the event's (or a span's begin) virtual timestamp.
	TS Time
	// Dur is a span's length (KindSpan only).
	Dur  Duration
	Kind Kind
	Type Type
	// Phase attributes TypePhase spans to a runtime component.
	Phase Phase
	// Step is the Fig. 10 step id (1–11; 0 = not a protocol step).
	Step uint8
	// Track is the resource timeline the event lives on: a device, a
	// link, a DRX unit, or an application instance.
	Track string
	// Peer is the destination track of a DMA (TypeQueueDMA, TypeP2PDMA,
	// TypeInputDMA, TypeOutputDMA).
	Peer string
	// App is the owning application instance, when one exists.
	App string
	// Name is the human label: a kernel name, a server name, a counter
	// series name.
	Name string
	// Bytes is the payload size of DMA and restructuring events.
	Bytes int64
	// Value is the sample of KindCounter events.
	Value float64
	// Flow links a KindFlowBegin to its KindFlowEnd.
	Flow uint64
}
