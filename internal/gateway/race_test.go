// Stress: 32 goroutines hammer queries and observability endpoints
// across tenants with tuning enabled — the suite CI runs under -race.
package gateway

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

func TestStress32Goroutines(t *testing.T) {
	cfg := testConfig()
	cfg.Tuning = true
	g, ts := newTestGateway(t, cfg)
	tenants := threeTenants()
	sqls := make(map[string][]string)
	for _, tc := range tenants {
		for _, fam := range tc.Families {
			if _, ok := sqls[fam]; !ok {
				sqls[fam] = []string{
					poolQuery(t, ts.URL, tc.APIKey, fam, 0),
					poolQuery(t, ts.URL, tc.APIKey, fam, 3),
				}
			}
		}
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := tenants[i%len(tenants)]
			fam := tc.Families[i%len(tc.Families)]
			pool := sqls[fam]
			for k := 0; k < 2; k++ {
				seq := int64(i*2 + k)
				status, body, _ := postQuery(t, ts.URL, tc.APIKey, seq, fam, pool[k%len(pool)])
				if status != http.StatusOK && status != http.StatusTooManyRequests {
					errs <- fmt.Errorf("%s seq %d: status %d body %v", tc.Name, seq, status, body)
				}
			}
			// Interleave scrapes with traffic: the metrics and stats
			// paths read the same guarded state the handlers write.
			for _, ep := range []string{"/metrics", "/v1/stats", "/readyz"} {
				resp, err := http.Get(ts.URL + ep)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", ep, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			g.GoalReport()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := g.Stats()
	if s.Accepted+s.Rejected != goroutines*2 {
		t.Errorf("accepted %d + rejected %d != %d requests", s.Accepted, s.Rejected, goroutines*2)
	}
	if got := int64(len(g.AuditRecords())); got != goroutines*2 {
		t.Errorf("audit records %d, want %d (one per request)", got, goroutines*2)
	}
}
