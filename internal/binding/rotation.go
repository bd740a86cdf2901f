package binding

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
)

// Rotator is the managed leader-rotation service Section 5.2 sketches
// ("Residual energy level or more sophisticated metrics could also be
// employed ... especially if the role of leader is to be periodically
// rotated among nodes in the cell"). It re-elects per-cell leaders on
// residual energy, excluding the incumbents so the role actually moves,
// and tracks how evenly leadership spreads.
type Rotator struct {
	med    *radio.Medium
	grid   *geom.Grid
	ledger *cost.Ledger

	current  *Binding
	rounds   int
	ledCount map[int]int // node -> rotations served as leader
}

// NewRotator elects the initial binding with the paper's closest-to-center
// metric and prepares rotation on the residual energy of the medium's own
// ledger, the one the elections charge.
func NewRotator(med *radio.Medium, grid *geom.Grid) (*Rotator, error) {
	bnd, _, err := Bind(med, grid, MinDistance{Network: med.Network(), Grid: grid})
	if err != nil {
		return nil, fmt.Errorf("binding: initial election: %w", err)
	}
	r := &Rotator{med: med, grid: grid, ledger: med.Ledger(), current: bnd, ledCount: map[int]int{}}
	for _, id := range bnd.Leaders {
		r.ledCount[id]++
	}
	return r, nil
}

// Current returns the active binding.
func (r *Rotator) Current() *Binding { return r.current }

// Rotate runs one rotation round: a fresh election on residual energy with
// the incumbents excluded. It returns the election result.
func (r *Rotator) Rotate() (*Result, error) {
	excluded := make(map[int]bool, len(r.current.Leaders))
	for _, id := range r.current.Leaders {
		excluded[id] = true
	}
	metric := Excluding{Inner: MaxResidual{Ledger: r.ledger}, Excluded: excluded}
	bnd, res, err := Bind(r.med, r.grid, metric)
	if err != nil {
		return res, fmt.Errorf("binding: rotation %d: %w", r.rounds+1, err)
	}
	r.current = bnd
	r.rounds++
	for _, id := range bnd.Leaders {
		r.ledCount[id]++
	}
	return res, nil
}

// RotateResidual re-elects each cell's executor on residual spend among
// the cell's *alive* members — the rotation mode for degrading networks,
// where the full broadcast protocol breaks down: dead nodes keep their
// leader flag forever (they cannot hear demotions), so Rotate's election
// would report conflicts. Instead, each cell settles locally: every alive
// member announces its score once, paying one Tx and one Rx per alive
// listener under the uniform cost model (charged directly to the ledger —
// through the battery meter when one is attached, so the rotation's own
// control traffic can deplete nodes mid-election), and the argmin spend
// among the members still alive afterwards wins, excluding the incumbent
// whenever an alternative survives so the role actually moves. Ties break
// toward the lower node ID. A cell whose members are all dead keeps its
// dead incumbent bound — traffic addressed to it drops at the radio, which
// downstream machinery (emul dispatch, topology tables) already handles,
// whereas an unbound cell would be a structural error.
//
// alive reports node liveness (nil means everyone is alive). It is
// re-consulted after the score exchange, so depletions caused by the
// exchange itself are honored. Returns the cells whose leader changed.
func (r *Rotator) RotateResidual(alive func(id int) bool) []geom.Coord {
	up := func(id int) bool { return alive == nil || alive(id) }
	members := r.med.Network().CellMembers(r.grid)
	var changed []geom.Coord
	for idx, cellNodes := range members {
		cell := r.grid.CoordOf(idx)
		incumbent, bound := r.current.Leaders[cell]
		if !bound {
			continue // unoccupied cell — never had an executor
		}
		var live []int
		for _, id := range cellNodes {
			if up(id) {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			continue // fully dead cell: keep the dead incumbent bound
		}
		// Snapshot spends first (the election must not chase its own
		// traffic), then charge the score exchange.
		spend := make(map[int]cost.Energy, len(live))
		for _, id := range live {
			spend[id] = r.ledger.Energy(id)
		}
		for _, id := range live {
			r.ledger.Charge(id, cost.Tx, scoreMsgSize)
			for _, other := range live {
				if other != id {
					r.ledger.Charge(other, cost.Rx, scoreMsgSize)
				}
			}
		}
		pick := func(excludeIncumbent bool) int {
			best := -1
			for _, id := range live {
				if !up(id) {
					continue // depleted by the exchange itself
				}
				if excludeIncumbent && id == incumbent {
					continue
				}
				if best == -1 || spend[id] < spend[best] || (spend[id] == spend[best] && id < best) {
					best = id
				}
			}
			return best
		}
		winner := pick(true)
		if winner == -1 {
			winner = pick(false)
		}
		if winner == -1 {
			continue // the exchange killed the whole cell
		}
		if winner != incumbent {
			r.current.Leaders[cell] = winner
			changed = append(changed, cell)
		}
		r.ledCount[winner]++
	}
	r.rounds++
	return changed
}

// Rounds returns how many rotations have run.
func (r *Rotator) Rounds() int { return r.rounds }

// DistinctLeaders returns how many distinct nodes have ever held a
// leadership role.
func (r *Rotator) DistinctLeaders() int { return len(r.ledCount) }

// Spread returns the ratio of the most- to least-burdened node among those
// that ever led (1.0 = perfectly even rotation so far).
func (r *Rotator) Spread() float64 {
	minC, maxC := 0, 0
	for _, c := range r.ledCount {
		if minC == 0 || c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if minC == 0 {
		return 0
	}
	return float64(maxC) / float64(minC)
}
