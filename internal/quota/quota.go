// Package quota solves the Preference Cover problem under per-group
// constraints: every item belongs to a group (category, brand, supplier,
// warehouse zone) and the retained set must respect a per-group maximum
// and/or minimum alongside the global budget k.
//
// Such quotas are ubiquitous in the paper's motivating scenarios — import
// regulations cap per-supplier counts in the overseas-launch setting, and
// express warehouses reserve shelf zones per category. A cardinality
// budget intersected with per-group caps is a partition matroid
// intersection, for which the greedy algorithm retains a 1/2 approximation
// guarantee for monotone submodular objectives (Fisher, Nemhauser, Wolsey
// 1978); per-group minimums are satisfied first by a per-group greedy
// phase, after which the remaining budget is filled globally.
package quota

import (
	"errors"
	"fmt"

	"prefcover/internal/graph"
	"prefcover/internal/kernel"
)

// Spec configures Solve.
type Spec struct {
	// Variant selects the cover semantics.
	Variant graph.Variant
	// K is the global retained-set budget.
	K int
	// Group assigns every item a group id in [0, numGroups).
	Group []int32
	// MaxPerGroup caps each group's retained count; 0 entries mean
	// unlimited. Length defines numGroups.
	MaxPerGroup []int
	// MinPerGroup, optional, forces at least this many retained items per
	// group (guaranteed-representation floors). Floors are satisfied
	// before the global fill; their sum must not exceed K.
	MinPerGroup []int
}

// Result is the quota-constrained solution.
type Result struct {
	Order []int32
	Gains []float64
	Cover float64
	// GroupCounts reports how many retained items each group received.
	GroupCounts []int
	// FloorsSatisfied is false when some group could not reach its floor
	// (fewer items exist than the floor demands).
	FloorsSatisfied bool
}

func (s *Spec) validate(n int) (int, error) {
	if s.K <= 0 {
		return 0, errors.New("quota: K must be positive")
	}
	if len(s.Group) != n {
		return 0, fmt.Errorf("quota: group assignment has %d entries for %d items", len(s.Group), n)
	}
	numGroups := len(s.MaxPerGroup)
	if numGroups == 0 {
		return 0, errors.New("quota: MaxPerGroup must define at least one group")
	}
	for v, g := range s.Group {
		if g < 0 || int(g) >= numGroups {
			return 0, fmt.Errorf("quota: item %d assigned to unknown group %d", v, g)
		}
	}
	for g, c := range s.MaxPerGroup {
		if c < 0 {
			return 0, fmt.Errorf("quota: negative cap for group %d", g)
		}
	}
	if s.MinPerGroup != nil {
		if len(s.MinPerGroup) != numGroups {
			return 0, fmt.Errorf("quota: MinPerGroup has %d entries for %d groups", len(s.MinPerGroup), numGroups)
		}
		total := 0
		for g, f := range s.MinPerGroup {
			if f < 0 {
				return 0, fmt.Errorf("quota: negative floor for group %d", g)
			}
			if cap := s.MaxPerGroup[g]; cap > 0 && f > cap {
				return 0, fmt.Errorf("quota: group %d floor %d exceeds cap %d", g, f, cap)
			}
			total += f
		}
		if total > s.K {
			return 0, fmt.Errorf("quota: floors total %d exceed K=%d", total, s.K)
		}
	}
	return numGroups, nil
}

// Solve runs the two-phase quota-constrained greedy.
func Solve(g *graph.Graph, spec Spec) (*Result, error) {
	n := g.NumNodes()
	numGroups, err := spec.validate(n)
	if err != nil {
		return nil, err
	}
	st := kernel.NewState(g, spec.Variant)
	defer st.Release()
	res := &Result{GroupCounts: make([]int, numGroups), FloorsSatisfied: true}

	take := func(v int32) {
		gain := st.Add(v)
		res.Order = append(res.Order, v)
		res.Gains = append(res.Gains, gain)
		res.GroupCounts[spec.Group[v]]++
	}

	// Phase 1: satisfy floors, best-gain-first within each group.
	if spec.MinPerGroup != nil {
		for grp := 0; grp < numGroups; grp++ {
			for res.GroupCounts[grp] < spec.MinPerGroup[grp] {
				best, bestGain := int32(-1), -1.0
				for v := int32(0); v < int32(n); v++ {
					if st.Retained(v) || int(spec.Group[v]) != grp {
						continue
					}
					if gain := st.Gain(v); gain > bestGain {
						best, bestGain = v, gain
					}
				}
				if best < 0 {
					res.FloorsSatisfied = false
					break // group exhausted below its floor
				}
				take(best)
			}
		}
	}

	// Phase 2: global greedy fill, skipping full groups.
	for len(res.Order) < spec.K {
		best, bestGain := int32(-1), -1.0
		for v := int32(0); v < int32(n); v++ {
			if st.Retained(v) {
				continue
			}
			grp := spec.Group[v]
			if cap := spec.MaxPerGroup[grp]; cap > 0 && res.GroupCounts[grp] >= cap {
				continue
			}
			if gain := st.Gain(v); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break // every remaining item sits in a full group
		}
		take(best)
	}
	res.Cover = st.Cover()
	return res, nil
}

// GroupsByLabelPrefix is a convenience grouping: items whose labels share
// the prefix up to the first occurrence of sep fall into the same group.
// It returns the per-item assignment and the group names in id order.
func GroupsByLabelPrefix(g *graph.Graph, sep byte) ([]int32, []string, error) {
	if !g.Labeled() {
		return nil, nil, errors.New("quota: label-prefix grouping needs a labeled graph")
	}
	assignment := make([]int32, g.NumNodes())
	index := map[string]int32{}
	var names []string
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		label := g.Label(v)
		prefix := label
		for i := 0; i < len(label); i++ {
			if label[i] == sep {
				prefix = label[:i]
				break
			}
		}
		id, ok := index[prefix]
		if !ok {
			id = int32(len(names))
			index[prefix] = id
			names = append(names, prefix)
		}
		assignment[v] = id
	}
	return assignment, names, nil
}
