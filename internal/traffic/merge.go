package traffic

// Cluster roll-up arithmetic: a fleet run retires each request on
// exactly one replica, so a cluster-wide AppLoad is the field-wise sum
// of disjoint per-replica partials. Keeping the merge here (next to the
// AppLoad definition) means a new counter added to AppLoad fails the
// roll-up tests until it is folded in.

// MergeApps folds disjoint partial AppLoad rows — one per replica, plus
// an optional router-rejection row — into one cluster-wide row. Counts,
// rates, and histograms sum; the derived quantile fields (Mean, P50,
// ...) are left zero for LoadReport.Finalize to recompute from the
// merged histograms. Merging a single partial is the identity, which is
// what makes a one-host fleet byte-identical to a plain RunLoad.
func MergeApps(parts ...AppLoad) AppLoad {
	var out AppLoad
	for _, p := range parts {
		if out.App == "" {
			out.App = p.App
		}
		out.Requests += p.Requests
		out.Completed += p.Completed
		out.Missed += p.Missed
		out.Offered += p.Offered
		out.Achieved += p.Achieved
		out.Latency.Merge(p.Latency)
		out.Degraded += p.Degraded
		out.Abandoned += p.Abandoned
		out.Retries += p.Retries
		out.Timeouts += p.Timeouts
		out.Rejected += p.Rejected
		out.Batches += p.Batches
		out.BatchedRequests += p.BatchedRequests
		out.CleanLat.Merge(p.CleanLat)
		out.DegradedLat.Merge(p.DegradedLat)
	}
	return out
}

// RoundRobin maps the j-th arrival of an application onto one of hosts
// replicas. It is a pure function of the arrival index so a fleet's
// round-robin assignment is independent of sweep-worker interleaving.
func RoundRobin(j, hosts int) int { return j % hosts }

// SplitRate apportions one application's offered rate across replicas
// in proportion to how many of its requests each actually received
// (router rejections count as a replica of their own): share i is
// rate·counts[i]/total. A replica that received every request gets rate
// itself, exactly — rate·c/c can round off it — which is what keeps a
// one-host report equal to its host's row.
func SplitRate(rate float64, counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		if c == total {
			out[i] = rate
		} else {
			out[i] = rate * float64(c) / float64(total)
		}
	}
	return out
}
