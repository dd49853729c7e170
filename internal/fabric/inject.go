package fabric

import (
	"fmt"

	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// InjectPFCStorm makes the given switch port behave like the hardware bug
// of §II-B: from start, it continuously asserts PAUSE toward its upstream
// neighbour regardless of queue occupancy, and releases it after duration.
// Cascading backpressure then propagates through the normal PFC machinery.
// The injection point must be a switch.
func (n *Network) InjectPFCStorm(sw topo.NodeID, port int, start simtime.Time, duration simtime.Duration) error {
	s := n.switches[sw]
	if s == nil {
		return fmt.Errorf("fabric: PFC storm injection point %d is not a switch", sw)
	}
	//lint:ignore hotalloc fault injection: scheduled once per scenario
	n.K.At(start, func() {
		s.stormPorts[port] = true
		if !s.pausedUpstream[port] {
			s.pausedUpstream[port] = true
			n.sendPFC(sw, port, true, s.busiestEgressFor(port), true)
		}
	})
	//lint:ignore hotalloc fault injection: scheduled once per scenario
	n.K.At(start.Add(duration), func() {
		s.stormPorts[port] = false
		if s.pausedUpstream[port] && s.ingressBytes[port] <= n.Cfg.PFCResumeThreshold {
			s.pausedUpstream[port] = false
			n.sendPFC(sw, port, false, s.busiestEgressFor(port), true)
		}
	})
	return nil
}
