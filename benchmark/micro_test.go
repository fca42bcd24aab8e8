package main

import (
	"sync"
	"testing"
)

// The primitive micro-benchmarks, for `go test -bench . -benchmem`; the
// traced run calls the same bodies at fixed iteration counts.

var (
	microOnce sync.Once
	microL    *microLab
	microErr  error
)

func sharedMicroLab(b *testing.B) *microLab {
	microOnce.Do(func() { microL, microErr = newMicroLab() })
	if microErr != nil {
		b.Fatal(microErr)
	}
	b.ResetTimer()
	return microL
}

func BenchmarkRowKey(b *testing.B)        { sharedMicroLab(b).benchRowKey(b) }
func BenchmarkBtreeInsert(b *testing.B)   { sharedMicroLab(b).benchBtreeInsert(b) }
func BenchmarkBtreeSeek(b *testing.B)     { sharedMicroLab(b).benchBtreeSeek(b) }
func BenchmarkHeapScan(b *testing.B)      { sharedMicroLab(b).benchHeapScan(b) }
func BenchmarkMergePartials(b *testing.B) { sharedMicroLab(b).benchMergePartials(b) }
func BenchmarkEstimateHit(b *testing.B)   { sharedMicroLab(b).benchEstimateHit(b) }
func BenchmarkEstimateMiss(b *testing.B)  { sharedMicroLab(b).benchEstimateMiss(b) }
