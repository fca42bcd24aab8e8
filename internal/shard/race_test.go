package shard

import (
	"sync"
	"testing"
)

// TestClusterRaceStress hammers one cluster from 32 goroutines mixing
// queries, live reshards, configuration transitions, pool changes,
// stats reads and dry-run autoscaler traffic. Correctness here is "no
// race, no error, every query's result non-nil"; byte-level determinism
// under a fixed topology is covered by the sequential tests. Run under
// `make race`.
func TestClusterRaceStress(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, 0, true)

	// The mix deliberately includes the exchange path: [0] is the
	// key-mismatched self-alias join (taxonomy⋈taxonomy on lineage) and
	// [4] joins organism⋈taxonomy on taxon_id, neither side native — both
	// repartition rows through the topology's exchange cache while other
	// goroutines Reshard underneath them.
	queries := []string{
		clusterQueries[0], clusterQueries[1], clusterQueries[2],
		clusterQueries[3], clusterQueries[4], clusterQueries[6],
	}
	const goroutines = 32
	const iters = 6

	errc := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) { // conflint:worker test stress goroutine, joined by wg.Wait below
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch g % 8 {
				case 0: // live reshard, alternating topology
					n := 2 + 2*((g+it)%2) // 2 or 4
					if err := cl.Reshard(n); err != nil {
						errc <- err
						return
					}
				case 1: // configuration churn
					var err error
					if it%2 == 0 {
						_, err = cl.Transition(coord.Current())
					} else {
						_, err = cl.Transition(coord.Current())
					}
					if err != nil {
						errc <- err
						return
					}
				case 2: // pool resizing + stats reads
					cl.SetPool(1 + (g+it)%8)
					_ = cl.Pool()
					_ = cl.Stats()
				case 3: // dry-run autoscaler traffic
					cur := State{Shards: cl.Shards(), Pool: cl.Pool()}
					next := Propose(cur, WindowMetrics{Window: it, Queries: 20, MeanSeconds: 25, GoalLevel: 0.5}, 10)
					u.Apply(it, cur, next)
					_ = u.Actions()
				default: // concurrent queries
					q := queries[(g+it)%len(queries)]
					res, _, err := cl.Run(q, 0)
					if err != nil {
						errc <- err
						return
					}
					if res == nil {
						errc <- errNilResult
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type nilResultError struct{}

func (nilResultError) Error() string { return "nil result without error" }

var errNilResult = nilResultError{}
