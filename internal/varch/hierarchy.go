// Package varch is the paper's primary contribution: the virtual
// architecture for algorithm design and synthesis on large-scale,
// homogeneous, densely deployed sensor networks (Section 3.2).
//
// It exports the four components the paper defines:
//
//   - the network model — an oriented √N × √N grid (Machine over geom.Grid);
//   - programming primitives — Send/Recv between virtual nodes and group
//     communication addressed to a level-k leader as a logical entity;
//   - middleware services — the hierarchical group formation service
//     (Hierarchy) where every node derives its leader/follower role at
//     every level from its own grid coordinates;
//   - cost functions — every primitive charges the cost.Ledger under the
//     paper's uniform model, and Predict* functions expose the analytical
//     costs so algorithms can be compared on paper before synthesis.
//
// The Machine in this package *is* the virtual architecture: programs
// written against it never see the underlying deployment. The runtime
// system (internal/vtopo + internal/binding) implements the same interface
// on an arbitrary physical network, and experiment E8 checks that the two
// agree the way Section 5 promises.
package varch

import (
	"fmt"

	"wsnva/internal/geom"
)

// Hierarchy is the group-formation middleware service of Section 3.2: on a
// 2^m × 2^m grid, level k partitions the grid into 2^k × 2^k blocks; the
// north-west corner node of each block is the level-k leader and the rest
// of the block are its level-k followers. Level 0 makes every node its own
// leader; level m has a single leader at the grid origin.
type Hierarchy struct {
	Grid   *geom.Grid
	Levels int // maximum level m = log2(side)
}

// NewHierarchy builds the group hierarchy for g. The grid must be square
// with a power-of-two side, as the quad-tree algorithm requires.
func NewHierarchy(g *geom.Grid) (*Hierarchy, error) {
	if g.Cols != g.Rows {
		return nil, fmt.Errorf("varch: hierarchy needs a square grid, got %dx%d", g.Cols, g.Rows)
	}
	if !geom.IsPow2(g.Cols) {
		return nil, fmt.Errorf("varch: hierarchy needs a power-of-two side, got %d", g.Cols)
	}
	return &Hierarchy{Grid: g, Levels: geom.Log2(g.Cols)}, nil
}

// MustHierarchy is NewHierarchy for construction sites with validated input.
func MustHierarchy(g *geom.Grid) *Hierarchy {
	h, err := NewHierarchy(g)
	if err != nil {
		panic(err)
	}
	return h
}

// BlockSize returns the side of a level-k block (2^k cells).
func (h *Hierarchy) BlockSize(level int) int {
	h.checkLevel(level)
	return 1 << level
}

func (h *Hierarchy) checkLevel(level int) {
	if level < 0 || level > h.Levels {
		panic(fmt.Sprintf("varch: level %d out of [0,%d]", level, h.Levels))
	}
}

// LeaderAt returns the level-k leader of the block containing c — the
// north-west corner of that block. Every node can evaluate this locally
// from its own coordinates, which is exactly how the paper's middleware
// avoids any discovery traffic for static groups.
func (h *Hierarchy) LeaderAt(c geom.Coord, level int) geom.Coord {
	h.checkLevel(level)
	mask := ^((1 << level) - 1)
	return geom.Coord{Col: c.Col & mask, Row: c.Row & mask}
}

// IsLeader reports whether c is a level-k leader.
func (h *Hierarchy) IsLeader(c geom.Coord, level int) bool {
	return h.LeaderAt(c, level) == c
}

// LevelOf returns the highest level at which c is a leader. The grid
// origin has LevelOf == Levels; odd-coordinate nodes have 0.
func (h *Hierarchy) LevelOf(c geom.Coord) int {
	lvl := 0
	for lvl < h.Levels && h.IsLeader(c, lvl+1) {
		lvl++
	}
	return lvl
}

// Followers returns all member coordinates of the level-k block led by
// leader, including the leader itself, in row-major order. It panics if
// leader is not a level-k leader.
func (h *Hierarchy) Followers(leader geom.Coord, level int) []geom.Coord {
	if !h.IsLeader(leader, level) {
		panic(fmt.Sprintf("varch: %v is not a level-%d leader", leader, level))
	}
	size := h.BlockSize(level)
	out := make([]geom.Coord, 0, size*size)
	for dr := 0; dr < size; dr++ {
		for dc := 0; dc < size; dc++ {
			out = append(out, geom.Coord{Col: leader.Col + dc, Row: leader.Row + dr})
		}
	}
	return out
}

// ActingLeader returns the first member of the level-k block containing c,
// in row-major order, for which alive holds: the static leader (the
// block's NW corner) while it lives, else the follower every member
// promotes by the same local rule, so failover needs no agreement
// traffic. ok is false when the whole block is dead.
func (h *Hierarchy) ActingLeader(c geom.Coord, level int, alive func(geom.Coord) bool) (acting geom.Coord, ok bool) {
	leader := h.LeaderAt(c, level)
	if alive(leader) {
		return leader, true
	}
	for _, m := range h.Followers(leader, level) {
		if alive(m) {
			return m, true
		}
	}
	return leader, false
}

// Children returns the four level-(k-1) leaders inside the level-k block
// led by leader, in quadrant order NW, NE, SW, SE — the quad-tree children
// of Figure 2. One of them is the leader itself (NW).
func (h *Hierarchy) Children(leader geom.Coord, level int) []geom.Coord {
	if level < 1 {
		panic("varch: level-0 groups have no children")
	}
	if !h.IsLeader(leader, level) {
		panic(fmt.Sprintf("varch: %v is not a level-%d leader", leader, level))
	}
	half := h.BlockSize(level - 1)
	return []geom.Coord{
		leader,
		{Col: leader.Col + half, Row: leader.Row},
		{Col: leader.Col, Row: leader.Row + half},
		{Col: leader.Col + half, Row: leader.Row + half},
	}
}

// Leaders returns all level-k leaders in row-major order.
func (h *Hierarchy) Leaders(level int) []geom.Coord {
	h.checkLevel(level)
	size := h.BlockSize(level)
	var out []geom.Coord
	for row := 0; row < h.Grid.Rows; row += size {
		for col := 0; col < h.Grid.Cols; col += size {
			out = append(out, geom.Coord{Col: col, Row: row})
		}
	}
	return out
}

// Root returns the unique top-level leader (the grid origin).
func (h *Hierarchy) Root() geom.Coord { return geom.Coord{} }

// FollowerDistance returns the hop distance from c to its level-k leader
// under shortest-path grid routing — the member→leader communication cost
// the middleware must export for performance analysis (Section 4.2).
func (h *Hierarchy) FollowerDistance(c geom.Coord, level int) int {
	return c.Manhattan(h.LeaderAt(c, level))
}

// MaxFollowerDistance returns the worst-case member→leader hop distance at
// level k: the SE corner of a block is (2^k - 1) + (2^k - 1) hops away.
func (h *Hierarchy) MaxFollowerDistance(level int) int {
	h.checkLevel(level)
	return 2 * (h.BlockSize(level) - 1)
}
