// Package joinpath extends the two-relation inference to *join paths*
// R1 ⋈θ1 R2 ⋈θ2 … ⋈θk−1 Rk — an extension the paper names explicitly as
// future work (Section 7: "extend our approach … to join paths").
//
// The inference decomposes along the path: each consecutive pair (Ri,
// Ri+1) is an independent two-relation instance, and the user answers
// membership questions about pairs of adjacent tuples. Decomposition is
// sound because a path-join predicate is exactly a tuple of pairwise
// predicates, and a pair of adjacent rows appears in the path join iff it
// appears in the pairwise join and both rows survive the neighbouring
// semijoins — the membership oracle hides none of the pairwise structure.
// Each step is therefore inferred by its own joininference Session over
// Step(i); examples/joinpath drives one per step.
package joinpath

import (
	"fmt"

	"repro/internal/predicate"
	"repro/internal/relation"
)

// Path is a sequence of ≥ 2 relations with pairwise-disjoint attribute
// sets between neighbours.
type Path struct {
	Relations []*relation.Relation
	// steps caches the adjacent-pair instances.
	steps []*relation.Instance
}

// NewPath validates the chain and builds the adjacent instances.
func NewPath(rels ...*relation.Relation) (*Path, error) {
	if len(rels) < 2 {
		return nil, fmt.Errorf("joinpath: need at least 2 relations, got %d", len(rels))
	}
	p := &Path{Relations: rels}
	for i := 0; i+1 < len(rels); i++ {
		inst, err := relation.NewInstance(rels[i], rels[i+1])
		if err != nil {
			return nil, fmt.Errorf("joinpath: step %d: %w", i+1, err)
		}
		p.steps = append(p.steps, inst)
	}
	return p, nil
}

// Steps returns the number of pairwise joins (len(Relations) − 1).
func (p *Path) Steps() int { return len(p.steps) }

// Step returns the i-th adjacent instance (0-based) and its universe.
func (p *Path) Step(i int) (*relation.Instance, *predicate.Universe) {
	inst := p.steps[i]
	return inst, predicate.NewUniverse(inst)
}

// Goal is a path-join predicate: one pairwise predicate per step.
type Goal []predicate.Pred

// Eval materializes the path join as index tuples (one index per
// relation), in lexicographic order. Intended for tests and small data.
func Eval(p *Path, g Goal) ([][]int, error) {
	if len(g) != p.Steps() {
		return nil, fmt.Errorf("joinpath: goal has %d predicates, path has %d steps", len(g), p.Steps())
	}
	// Start with all rows of the first relation, extend step by step.
	current := make([][]int, p.Relations[0].Len())
	for i := range current {
		current[i] = []int{i}
	}
	for s := 0; s < p.Steps(); s++ {
		inst, u := p.Step(s)
		var next [][]int
		for _, prefix := range current {
			tR := inst.R.Tuples[prefix[len(prefix)-1]]
			for pi, tP := range inst.P.Tuples {
				if g[s].Selects(u, tR, tP) {
					row := append(append([]int(nil), prefix...), pi)
					next = append(next, row)
				}
			}
		}
		current = next
	}
	return current, nil
}

// Format renders the path predicate with attribute names.
func Format(p *Path, g Goal) string {
	out := ""
	for i, pred := range g {
		_, u := p.Step(i)
		if i > 0 {
			out += "  ⋈  "
		}
		out += pred.Format(u)
	}
	return out
}
