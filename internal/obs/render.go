package obs

import "fmt"

// RenderText renders one event as the classic one-line Fig. 10 trace —
// the log `dmxsim -trace` prints, by calling it from the recorder's
// OnEvent hook. It is the single text renderer over the event stream:
// only protocol instants produce lines (spans, flows, and counters are
// for the Perfetto sink and the metrics aggregator), so a streamed
// rendering reproduces the historical line sequence exactly, and a text
// log always agrees with the Perfetto trace and metrics of the same
// recorder.
func RenderText(ev *Event) (string, bool) {
	if ev.Kind != KindInstant {
		return "", false
	}
	switch ev.Type {
	case TypeInputDMA:
		return fmt.Sprintf("request input DMA host→%s (%d B)", ev.Peer, ev.Bytes), true
	case TypeKernelEnqueued:
		return fmt.Sprintf("kernel %s enqueued on %s", ev.Name, ev.Track), true
	case TypeKernelDone:
		return fmt.Sprintf("kernel %s finished; interrupt raised", ev.Name), true
	case TypeQueueDMA:
		return fmt.Sprintf("P2P DMA %s→RX queue of DRX (%d B)", ev.Track, ev.Bytes), true
	case TypeRestructure:
		return fmt.Sprintf("DRX restructuring %s", ev.Name), true
	case TypeHostRestructure:
		return fmt.Sprintf("host restructuring %s", ev.Name), true
	case TypeTXReady:
		return "restructured into TX queue; interrupt raised", true
	case TypeP2PDMA:
		return fmt.Sprintf("P2P DMA %s→%s (%d B)", ev.Track, ev.Peer, ev.Bytes), true
	case TypeHostDMA:
		return fmt.Sprintf("CPU-mediated DMA %s→%s (%d B)", ev.Track, ev.Peer, ev.Bytes), true
	case TypeOutputDMA:
		return fmt.Sprintf("result output DMA %s→host (%d B)", ev.Track, ev.Bytes), true
	case TypeFault:
		return fmt.Sprintf("fault injected: %s impaired", ev.Name), true
	case TypeRepair:
		return fmt.Sprintf("fault repaired: %s healthy", ev.Name), true
	case TypeRetry:
		return fmt.Sprintf("retrying %s (attempt %d)", ev.Name, ev.Bytes), true
	case TypeTimeout:
		return fmt.Sprintf("stage watchdog fired on %s", ev.Name), true
	case TypeStall:
		return fmt.Sprintf("accelerator %s stalled (%d ps)", ev.Track, ev.Bytes), true
	case TypeDegrade:
		return fmt.Sprintf("degrading hop to CPU restructuring (%s unavailable)", ev.Name), true
	case TypeAbandon:
		return "request abandoned: retry budget exhausted", true
	case TypeReject:
		return "request rejected at admission: app at outstanding limit", true
	case TypeBatch:
		return fmt.Sprintf("batch window closed: dispatching %d coalesced requests", ev.Bytes), true
	case TypeRoute:
		if ev.Peer == "" {
			return fmt.Sprintf("router rejected request (%s: no eligible host)", ev.Name), true
		}
		return fmt.Sprintf("router → %s (%s, %d outstanding)", ev.Peer, ev.Name, ev.Bytes), true
	}
	return "", false
}
