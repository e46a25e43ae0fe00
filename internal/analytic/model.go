// Package analytic implements the paper's stated future work ("Our next
// object is to develop an analytical modeling approach to investigate the
// performance behavior of Software-Based fault-tolerant routing"): a
// fixed-point mean-value model of message latency in wormhole-switched
// k-ary n-cubes under deterministic routing, extended with the software
// absorption overhead of SW-Based routing.
//
// The construction follows the standard queueing treatment of wormhole
// tori (Draper & Ghosh; Ould-Khaoua): mean network latency is the sum of
// the pipeline term (M + D), per-hop blocking waits from an M/G/1
// approximation of channel contention, a virtual-channel multiplexing
// factor, and an M/G/1 source-queue wait. Faults add the expected number of
// absorptions per message times the cost of one software stop (drain +
// re-injection + overhead Δ).
//
// The model is intentionally approximate: it tracks the simulator within
// tens of percent below saturation and predicts the position of the latency
// knee, which is what analytical models of this family are used for.
// `analyze -mode model` prints model, simulation and relative error per λ;
// TestModelTracksSimulator holds the error within 40 % below saturation.
package analytic

import (
	"errors"
	"math"
)

// Model holds the parameters of one analytical evaluation.
type Model struct {
	// K, N: k-ary n-cube.
	K, N int
	// V: virtual channels per physical channel.
	V int
	// M: message length in flits.
	M int
	// Lambda: per-node generation rate (messages/node/cycle).
	Lambda float64
	// Nf: number of random faulty nodes.
	Nf int
	// Delta: software re-injection overhead in cycles.
	Delta float64
	// Adaptive models Duato-based fully adaptive routing: a message waits
	// only when the virtual channels of every profitable direction are
	// busy, so the per-hop blocking probability is raised to the expected
	// number of alternative directions remaining at that hop.
	Adaptive bool
}

// ErrSaturated is returned when the offered load exceeds the model's
// stability region (channel or source utilisation >= 1).
var ErrSaturated = errors.New("analytic: offered load beyond saturation")

// MeanRingDist returns the expected minimal ring distance between two
// uniformly random coordinates on a k-ring (self-pairs included).
func MeanRingDist(k int) float64 {
	sum := 0
	for o := 0; o < k; o++ {
		d := o
		if k-o < d {
			d = k - o
		}
		sum += d
	}
	return float64(sum) / float64(k)
}

// MeanDistance returns the expected hop count D of a uniformly addressed
// message.
func (m Model) MeanDistance() float64 {
	return float64(m.N) * MeanRingDist(m.K)
}

// nodes returns k^n.
func (m Model) nodes() int {
	total := 1
	for i := 0; i < m.N; i++ {
		total *= m.K
	}
	return total
}

// ChannelRate returns the per-directed-channel message arrival rate:
// each message occupies D channels of the 2n per node.
func (m Model) ChannelRate() float64 {
	return m.Lambda * m.MeanDistance() / float64(2*m.N)
}

// multiplexingFactor is Dally's virtual-channel multiplexing degree: the
// expected number of active VCs weighted by their bandwidth share, from a
// binomial occupancy approximation at channel utilisation rho.
func multiplexingFactor(v int, rho float64) float64 {
	if rho <= 0 {
		return 1
	}
	if rho > 1 {
		rho = 1
	}
	var num, den float64
	for i := 1; i <= v; i++ {
		p := binom(v, i) * math.Pow(rho, float64(i)) * math.Pow(1-rho, float64(v-i))
		num += float64(i*i) * p
		den += float64(i) * p
	}
	if den == 0 {
		return 1
	}
	return num / den
}

func binom(n, k int) float64 {
	res := 1.0
	for i := 0; i < k; i++ {
		res *= float64(n-i) / float64(k-i)
	}
	return res
}

// NetworkLatency solves the fixed point for the mean in-network latency of
// a message (head injection to tail ejection), excluding source queueing
// and fault overhead. It returns ErrSaturated when no stable solution
// exists.
func (m Model) NetworkLatency() (float64, error) {
	d := m.MeanDistance()
	lch := m.ChannelRate()
	base := float64(m.M) + d
	t := base
	for iter := 0; iter < 500; iter++ {
		// A blocked message waits for a channel whose holder needs, on
		// average, the residual downstream service: approximate the channel
		// service time as the message pipeline plus half the accumulated
		// blocking beyond it.
		s := float64(m.M) + (t-float64(m.M))/2
		rhoFlit := lch * float64(m.M) // flit utilisation of the physical link
		if rhoFlit >= 1 {
			return 0, ErrSaturated
		}
		// Wait only when all V virtual channels are held: geometric-ish
		// penalty rho^V on the M/G/1 wait.
		pBlockOne := math.Pow(rhoFlit, float64(m.V))
		wait := pBlockOne * lch * s * s / (1 - rhoFlit)
		totalWait := d * wait
		if m.Adaptive {
			// A hop blocks only when every profitable direction is held.
			// Early hops see ~n unfinished dimensions, the last hop one;
			// the expected alternative count decays linearly along the
			// path.
			totalWait = 0
			hops := int(math.Ceil(d))
			for j := 1; j <= hops; j++ {
				alts := 1 + float64(m.N-1)*float64(hops-j)/float64(hops)
				totalWait += math.Pow(pBlockOne, alts) * lch * s * s / (1 - rhoFlit)
			}
		}
		// Virtual-channel multiplexing stretches flit delivery.
		vbar := multiplexingFactor(m.V, rhoFlit)
		next := (base + totalWait) * vbar
		if math.IsInf(next, 0) || math.IsNaN(next) || next > 1e7 {
			return 0, ErrSaturated
		}
		if math.Abs(next-t) < 1e-9 {
			return next, nil
		}
		t = 0.5*t + 0.5*next // damped iteration
	}
	return t, nil
}

// AbsorptionsPerMessage estimates the expected number of software
// absorptions a message suffers: at each of its D hops the required next
// node is faulty with probability ~nf/N; the first reversal usually clears
// a lone fault, so concave pile-ups contribute a small second-order term.
func (m Model) AbsorptionsPerMessage() float64 {
	if m.Nf == 0 {
		return 0
	}
	pf := float64(m.Nf) / float64(m.nodes())
	d := m.MeanDistance()
	first := d * pf
	// Second absorption (other direction also blocked / detour blocked):
	// proportional to the chance a second fault sits adjacent, ~ (nf-1)
	// among the ~2n neighbours of the region.
	second := first * float64(m.Nf-1) * float64(2*m.N) / float64(m.nodes())
	return first + second
}

// StopCost returns the mean cost of one software stop: draining M flits
// through the ejection channel, the software overhead Δ, re-injection
// streaming, and a couple of extra hops for the detour.
func (m Model) StopCost() float64 {
	return float64(m.M) + m.Delta + 2 + MeanRingDist(m.K)
}

// SourceWait returns the M/G/1 waiting time at the injection queue, whose
// server is the injection channel streaming M flits per message.
func (m Model) SourceWait() (float64, error) {
	s := float64(m.M)
	rho := m.Lambda * s
	if rho >= 1 {
		return 0, ErrSaturated
	}
	// M/D/1 wait (deterministic service: fixed message length).
	return rho * s / (2 * (1 - rho)), nil
}

// MeanLatency returns the model's end-to-end mean message latency:
// source wait + network fixed point + expected absorption overhead.
func (m Model) MeanLatency() (float64, error) {
	if m.K < 2 || m.N < 1 || m.V < 1 || m.M < 1 || m.Lambda <= 0 {
		return 0, errors.New("analytic: invalid model parameters")
	}
	tnet, err := m.NetworkLatency()
	if err != nil {
		return 0, err
	}
	ws, err := m.SourceWait()
	if err != nil {
		return 0, err
	}
	return ws + tnet + m.AbsorptionsPerMessage()*m.StopCost(), nil
}

// SaturationRate estimates the offered load at which the model diverges, by
// bisection on MeanLatency stability.
func (m Model) SaturationRate() float64 {
	lo, hi := 0.0, 1.0/float64(m.M) // flit-bandwidth upper bound at the source
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		probe := m
		probe.Lambda = mid
		if _, err := probe.MeanLatency(); err != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}
