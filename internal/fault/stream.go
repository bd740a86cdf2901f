package fault

import (
	"fmt"
	"math"
)

// StreamChannel is a loss channel whose every draw is rekeyed to a
// counter-based per-(node, seq) stream: the k-th decision made on behalf
// of sender node is a pure function of (seed, node, k), independent of
// when — or on which shard — it is evaluated. That property is what lets
// a sharded simulation reproduce the single-kernel oracle's loss pattern
// bit for bit: each sender's draws happen in its own deterministic local
// event order, so draw indices line up across any sharding, while a
// shared rand.Rand stream would be consumed in global schedule order and
// diverge the moment two shards interleave differently.
//
// Two modes share the machinery:
//
//   - Bernoulli: one draw per delivery attempt, lost with probability p.
//   - Gilbert–Elliott: a per-sender two-state Markov chain advanced one
//     step per attempt, then a loss draw under the current state — two
//     draws per attempt, always, mirroring BurstChannel.Lost so the
//     per-node streams stay aligned whatever path the chain takes.
//
// Concurrency: all mutable state (draw counters, chain states) is indexed
// by sender, and in the sharded engine every draw for a node is made by
// the node's owner shard, so distinct shards never touch the same slot.
// There is deliberately no aggregate counter.
type StreamChannel struct {
	seed   uint64
	p      float64 // Bernoulli loss probability
	burst  bool
	params GilbertElliott

	ctr []uint64 // per-sender draw counter
	bad []bool   // per-sender Gilbert–Elliott state
}

// NewBernoulliStream returns an independent-loss channel over n senders:
// every delivery attempt is lost with probability p, drawn from the
// sender's counter-based stream.
func NewBernoulliStream(n int, p float64, seed int64) (*StreamChannel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fault: stream channel needs positive node count, got %d", n)
	}
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return nil, fmt.Errorf("fault: stream loss probability %v out of [0,1)", p)
	}
	return &StreamChannel{
		seed: uint64(seed),
		p:    p,
		ctr:  make([]uint64, n),
	}, nil
}

// Stream returns a counter-keyed Gilbert–Elliott channel over n senders:
// each sender runs its own chain (starting Good), advanced once per
// delivery attempt in the sender's local event order.
func (g GilbertElliott) Stream(n int, seed int64) (*StreamChannel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fault: stream channel needs positive node count, got %d", n)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &StreamChannel{
		seed:   uint64(seed),
		burst:  true,
		params: g,
		ctr:    make([]uint64, n),
		bad:    make([]bool, n),
	}, nil
}

// Lost draws one delivery attempt on behalf of sender from. The decision
// is keyed entirely by (seed, from, draw index); to and size are part of
// the Channel signature but do not enter the hash — both engines evaluate
// a sender's attempts in the same order, which is the only alignment
// needed.
func (c *StreamChannel) Lost(from, _ int, _ int64) bool {
	var p float64
	if c.burst {
		flip := c.draw(from)
		if c.bad[from] {
			if flip < c.params.PBadGood {
				c.bad[from] = false
			}
		} else if flip < c.params.PGoodBad {
			c.bad[from] = true
		}
		p = c.params.LossGood
		if c.bad[from] {
			p = c.params.LossBad
		}
	} else {
		p = c.p
	}
	return c.draw(from) < p
}

// draw consumes the sender's next counter slot and maps it to [0, 1).
func (c *StreamChannel) draw(node int) float64 {
	k := c.ctr[node]
	c.ctr[node]++
	z := c.seed + uint64(node)*0x9E3779B97F4A7C15 + k*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
