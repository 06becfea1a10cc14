package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ipdelta/internal/graph"
	"ipdelta/internal/stats"
)

// PolicyRow summarizes one cycle-breaking policy against the exhaustive
// optimum over a population of small random CRWI-like digraphs.
type PolicyRow struct {
	Policy string
	// MeanOverOptimal is the mean of (policy cost / optimal cost) over
	// cyclic instances; 1.0 is perfect.
	MeanOverOptimal  float64
	WorstOverOptimal float64
	// ExactOptimal counts instances where the policy matched the optimum.
	ExactOptimal int
}

// PolicyResult is the §5 ablation the paper could not run (the global
// optimum is NP-hard): on instances small enough for exhaustive search,
// how close do the two practical policies get?
type PolicyResult struct {
	Instances int // cyclic instances evaluated
	Rows      []PolicyRow
}

// RunPolicies compares the policies against exhaustive optima on random
// digraphs with up to maxVertices vertices.
func RunPolicies(instances, maxVertices int, seed int64) (*PolicyResult, error) {
	if maxVertices > 14 {
		maxVertices = 14 // keep exhaustive search tractable
	}
	rng := rand.New(rand.NewSource(seed))
	policies := []graph.Policy{graph.ConstantTime{}, graph.LocallyMinimum{}}
	type acc struct {
		ratios stats.Aggregate
		exact  int
	}
	accs := make([]acc, len(policies))
	cyclic := 0
	for cyclic < instances {
		n := rng.Intn(maxVertices-3) + 4
		density := rng.Float64()*0.25 + 0.05
		var edges [][2]int32
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < density {
					edges = append(edges, [2]int32{int32(u), int32(v)})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		if graph.TopoSort(g, graph.UnitCost, graph.LocallyMinimum{}).CyclesBroken == 0 {
			continue
		}
		costs := make([]int64, n)
		for k := range costs {
			costs[k] = rng.Int63n(100) + 1
		}
		cost := func(v int) int64 { return costs[v] }
		_, optCost, err := graph.MinFeedbackVertexSet(g, cost, maxVertices)
		if err != nil {
			return nil, err
		}
		if optCost == 0 {
			continue
		}
		cyclic++
		for k, p := range policies {
			res := graph.TopoSort(g, cost, p)
			ratio := float64(res.RemovedCost) / float64(optCost)
			accs[k].ratios.Add(ratio)
			if res.RemovedCost == optCost {
				accs[k].exact++
			}
		}
	}
	out := &PolicyResult{Instances: cyclic}
	for k, p := range policies {
		out.Rows = append(out.Rows, PolicyRow{
			Policy:           p.Name(),
			MeanOverOptimal:  accs[k].ratios.Mean(),
			WorstOverOptimal: accs[k].ratios.Max(),
			ExactOptimal:     accs[k].exact,
		})
	}
	return out, nil
}

// Render prints the policy ablation.
func (r *PolicyResult) Render(w io.Writer) error {
	t := stats.Table{
		Title:   fmt.Sprintf("§5 policy ablation — %d random cyclic digraphs vs exhaustive optimum", r.Instances),
		Headers: []string{"policy", "mean cost/optimal", "worst cost/optimal", "matched optimum"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Policy,
			fmt.Sprintf("%.2f", row.MeanOverOptimal),
			fmt.Sprintf("%.2f", row.WorstOverOptimal),
			fmt.Sprintf("%d/%d", row.ExactOptimal, r.Instances),
		)
	}
	return t.Render(w)
}
