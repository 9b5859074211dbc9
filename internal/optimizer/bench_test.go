package optimizer_test

import (
	"testing"

	"seco/internal/core"
	"seco/internal/optimizer"
	"seco/internal/query"
	"seco/internal/types"
)

var benchSink *optimizer.Result

// BenchmarkOptimize times one branch-and-bound per committed scenario
// under the two metrics the servers run with. The cold-variant cell
// parses and analyzes inside the loop as well: it is what one plan-cache
// miss of secobench's triangle-churn workload pays before the engine is
// built.
func BenchmarkOptimize(b *testing.B) {
	cells := []struct {
		name  string
		build func(int64) (*core.System, map[string]types.Value, error)
		text  string
		parse bool
	}{
		{"movienight", core.MovieNight, query.RunningExampleText, false},
		{"conftravel", core.ConfTravel, query.TravelExampleText, false},
		{"triangle", core.Triangle, query.TriangleExampleText, false},
		{"triangle-cold+parse", core.Triangle, coldTriangleText, true},
	}
	for _, c := range cells {
		sys, _, err := c.build(7)
		if err != nil {
			b.Fatal(err)
		}
		q, err := sys.Parse(c.text)
		if err != nil {
			b.Fatal(err)
		}
		for _, metric := range []string{"request-response", "execution-time"} {
			b.Run(c.name+"/"+metric, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pq := q
					if c.parse {
						if pq, err = sys.Parse(c.text); err != nil {
							b.Fatal(err)
						}
					}
					res, err := sys.Plan(pq, core.PlanOptions{K: 10, Metric: metric})
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
			})
		}
	}
}
