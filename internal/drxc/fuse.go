package drxc

import (
	"sync"

	"dmx/internal/restructure"
)

// The process-wide fused-kernel memo. restructure.Fuse is cheap, but the
// compile cache keys on *Kernel fingerprints whose memoization lives in
// the kernel value: handing every plan its own freshly fused *Kernel
// would still compile once per fingerprint, yet re-render the
// fingerprint per plan. Sharing one canonical fused kernel per source
// pair keeps both memos (fingerprint and compiled program) process-wide,
// exactly like the unfused library kernels that pipelines share.
var fusedKernels sync.Map // string (fp1 + "\x00" + fp2) → *restructure.Kernel

// FusedKernel returns the canonical fusion of k1 followed by k2,
// memoized process-wide by the pair's fingerprints. Errors are not
// cached: an infusible pair fails identically on retry.
func FusedKernel(k1, k2 *restructure.Kernel) (*restructure.Kernel, error) {
	key := k1.Fingerprint() + "\x00" + k2.Fingerprint()
	if v, ok := fusedKernels.Load(key); ok {
		return v.(*restructure.Kernel), nil
	}
	f, err := restructure.Fuse(k1, k2)
	if err != nil {
		return nil, err
	}
	actual, _ := fusedKernels.LoadOrStore(key, f)
	return actual.(*restructure.Kernel), nil
}
