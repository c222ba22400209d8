package dmxsys

import "dmx/internal/sim"

// HopDRX exposes app i's per-hop DRX service times to external tests.
func (p *Plan) HopDRX(i int) []sim.Duration { return p.apps[i].hopDRX }

// DRXTimeOf exposes the process-wide kernel timing to external tests.
var DRXTimeOf = drxTimeOf
