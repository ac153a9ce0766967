package core

import "sort"

// PlanDelta describes how a state snapshot differs from the previous
// planning round's. It deliberately over-approximates — Changed may name
// clients that did not actually move (the NMDB marks whole shards). An
// invalid delta (Valid=false) just means "unknown".
type PlanDelta struct {
	Valid bool
	// Changed lists, in ascending order, the node IDs whose records may
	// have changed since the previous snapshot.
	Changed []int
	// TopologyChanged reports a graph change since the previous snapshot.
	TopologyChanged bool
}

// ChangedContains reports whether node is in the sorted Changed list.
func (d *PlanDelta) ChangedContains(node int) bool {
	k := sort.SearchInts(d.Changed, node)
	return k < len(d.Changed) && d.Changed[k] == node
}
