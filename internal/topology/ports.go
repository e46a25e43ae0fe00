package topology

import "fmt"

// Port identifies one of a router's physical channel endpoints. Network
// ports are numbered 0..2n-1 with port 2*dim for the Plus direction and
// 2*dim+1 for Minus; the two local ports (injection from and ejection to the
// processing element) follow.
type Port int

// PortFor returns the network output port leaving a node along dim towards
// dir.
func PortFor(dim int, dir Dir) Port {
	if dir == Plus {
		return Port(2 * dim)
	}
	return Port(2*dim + 1)
}

// Dim returns the dimension a network port travels along.
func (p Port) Dim() int { return int(p) / 2 }

// Dir returns the direction a network port travels.
func (p Port) Dir() Dir {
	if int(p)%2 == 0 {
		return Plus
	}
	return Minus
}

// Opposite returns the port on the neighbouring router that receives what
// this output port sends: same dimension, reverse direction (2d ⇄ 2d+1).
func (p Port) Opposite() Port { return p ^ 1 }

func (p Port) String() string {
	return fmt.Sprintf("d%d%s", p.Dim(), p.Dir())
}

// ChannelID names a unidirectional physical channel: the output port `Port`
// of node `Src`. Virtual channels are (ChannelID, vc index) pairs; packages
// that need them (deadlock analysis) build their own composite keys.
type ChannelID struct {
	Src  NodeID
	Port Port
}

// Dst returns the node this channel delivers to, or -1 when the network
// has no such link (mesh edges).
func (c ChannelID) Dst(net Network) NodeID {
	return net.Neighbor(c.Src, c.Port.Dim(), c.Port.Dir())
}

func (c ChannelID) String() string {
	return fmt.Sprintf("ch[%d:%s]", c.Src, c.Port)
}

// ChannelsOf enumerates every unidirectional network channel of net in a
// deterministic order (node-major, then port), skipping the unwired edge
// ports of non-wrapping topologies.
func ChannelsOf(net Network) []ChannelID {
	out := make([]ChannelID, 0, net.Nodes()*net.Degree())
	for id := 0; id < net.Nodes(); id++ {
		for p := 0; p < net.Degree(); p++ {
			port := Port(p)
			if !net.HasLink(NodeID(id), port.Dim(), port.Dir()) {
				continue
			}
			out = append(out, ChannelID{Src: NodeID(id), Port: port})
		}
	}
	return out
}
