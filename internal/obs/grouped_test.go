package obs

import (
	"sync"
	"testing"
)

// A counter family updated inside Grouped is observed by Snapshot either
// all-applied or not at all: a concurrent scrape can never see a torn view
// where one family member moved and its sibling did not. (This runs under
// the -race lane; it also exercises the epochMu lock ordering.)
func TestGroupedSnapshotNotTorn(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("test.family.sources")
	b := reg.Counter("test.family.samples")

	const writers, iters = 4, 500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				reg.Grouped(func() {
					a.Add(1)
					b.Add(1)
				})
			}
		}()
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := reg.Snapshot()
			if snap["test.family.sources"].Value != snap["test.family.samples"].Value {
				t.Errorf("torn snapshot: sources=%d samples=%d",
					snap["test.family.sources"].Value, snap["test.family.samples"].Value)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	final := reg.Snapshot()
	want := int64(writers * iters)
	if final["test.family.sources"].Value != want || final["test.family.samples"].Value != want {
		t.Fatalf("final counts = %d/%d, want %d",
			final["test.family.sources"].Value, final["test.family.samples"].Value, want)
	}
}

// Grouped on a nil registry still runs fn (updates through nil handles are
// no-ops), and concurrent Grouped sections do not block each other.
func TestGroupedNilAndConcurrent(t *testing.T) {
	var nilReg *Registry
	ran := false
	nilReg.Grouped(func() { ran = true })
	if !ran {
		t.Fatalf("nil-registry Grouped skipped fn")
	}

	reg := NewRegistry()
	c := reg.Counter("test.grouped.counter")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Grouped(func() { c.Add(1) })
		}()
	}
	wg.Wait()
	if c.Value() != 8 {
		t.Fatalf("concurrent Grouped lost updates: %d", c.Value())
	}
}
