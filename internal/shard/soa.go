package shard

import (
	"wsnva/internal/deploy"
	"wsnva/internal/sim"
)

// State is the fabric's struct-of-arrays node state — liveness gates
// and wake bookkeeping; protocol state belongs to the apps. One flat
// array per field instead of one struct per node, every one indexed by
// slot (Partition): a sender's receivers sit in a few short runs of
// each array, and each shard's slots are one contiguous range, so shards
// write disjoint cache lines. Fields a shard mutates are only ever
// touched for slots the shard owns, which is what makes the layout safe
// to share across shard goroutines without locks. The test oracle runs
// on the identity layout, slot = ID.
type State struct {
	// Alive is the fail-stop gate (false = radio off), cleared by
	// scheduled crashes and battery depletions; it never flips back.
	Alive []bool

	// Suspended is the reversible churn gate: true while a node's radio
	// duty-cycles off. A suspended node neither sends nor receives but
	// keeps its state; Config.Churn toggles the flag on the node's owner
	// shard. Only consulted for alive nodes — dead beats
	// asleep, exactly as in radio.Medium.
	Suspended []bool

	// GaspUntil extends a depleted node's life through its final instant:
	// set to the depletion time t, the liveness gate still passes for
	// events stamped exactly t (the dying-gasp instant), and fails from
	// t+1 on. -1 (the default) means no gasp — a crashed node is silent
	// at its crash instant already.
	GaspUntil []sim.Time

	// count is a node's wake state, written only by its owner fabric:
	// the number of packets the node has in its fabric's inbox at the
	// current instant (the drain borrows it as the node's offset). A node
	// with a nonzero count is listed for the instant's drain.
	count []int32
}

// NewState builds the SoA layout for a deployment, all nodes alive.
func NewState(nw *deploy.Network) *State {
	n := nw.N()
	st := &State{
		Alive:     make([]bool, n),
		Suspended: make([]bool, n),
		GaspUntil: make([]sim.Time, n),
		count:     make([]int32, n),
	}
	for i := 0; i < n; i++ {
		st.Alive[i] = true
		st.GaspUntil[i] = -1
	}
	return st
}

// liveAt is a slot's transmission/reception gate at instant now: up and
// not suspended, or depleting at this very instant (the dying gasp). The
// branch order mirrors radio.Medium.liveAt exactly: for an alive node
// only the suspension flag matters, and a dead node's gasp overrides
// whatever suspension state it died with.
func (st *State) liveAt(slot int32, now sim.Time) bool {
	if st.Alive[slot] {
		return !st.Suspended[slot]
	}
	return st.GaspUntil[slot] >= 0 && now <= st.GaspUntil[slot]
}

// Deaths counts nodes that are down (crashed or depleted).
func (st *State) Deaths() int {
	d := 0
	for _, a := range st.Alive {
		if !a {
			d++
		}
	}
	return d
}

// Packet is one delivered message as the app sees it: the sender, the
// size in cost-model data units, the protocol key (the dissemination
// app stores the flood index; the labeling app a globally unique message
// id), and an optional protocol payload carried by unicasts. Within one
// wake batch the (From, Key) pair is unique — a node transmits a given
// key at most once per instant — which is what lets the batch be sorted
// into a canonical order independent of delivery interleaving.
type Packet struct {
	From    int
	Size    int64
	Key     int64
	Payload any
}
