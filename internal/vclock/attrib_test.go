package vclock

import (
	"sync"
	"testing"
	"unsafe"
)

// Attribution is pure side bookkeeping: Now() is the sum of the category
// buckets, and tagging must never change Now().

func TestAdvanceCatSumsToLocal(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatCompute, 100)
	c.AdvanceCat(CatMemory, 30)
	c.AdvanceCat(CatProtocol, 7)
	c.AdvanceCat(CatNetwork, 12)
	c.Advance(5) // untagged defaults to compute
	c.Steal(40)

	bd := c.Breakdown()
	if bd.Compute != 105 || bd.Memory != 30 || bd.Protocol != 7 || bd.Network != 12 || bd.Stolen != 40 {
		t.Fatalf("unexpected breakdown: %+v", bd)
	}
	if got, want := bd.Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

func TestAdvanceToCatAttributesDelta(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatCompute, 50)
	c.AdvanceToCat(CatNetwork, 80) // applies a 30ns jump
	if got := c.Breakdown().Network; got != 30 {
		t.Fatalf("network bucket = %d, want 30", got)
	}
	c.AdvanceToCat(CatNetwork, 10) // no-op: clock never moves backwards
	if got := c.Breakdown().Network; got != 30 {
		t.Fatalf("network bucket after no-op = %d, want 30", got)
	}
	if got, want := c.Breakdown().Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

// AdvanceToCat must also account for stolen time: the applied delta is
// Now-relative, so the bucket gets exactly what the clock gained.
func TestAdvanceToCatWithStolenTime(t *testing.T) {
	var c Clock
	c.Steal(100)
	c.AdvanceToCat(CatProtocol, 60) // already past: no-op
	if got := c.Breakdown().Protocol; got != 0 {
		t.Fatalf("protocol bucket = %d, want 0", got)
	}
	c.AdvanceToCat(CatProtocol, 150) // owner buckets must reach 50
	bd := c.Breakdown()
	if bd.Protocol != 50 {
		t.Fatalf("protocol bucket = %d, want 50", bd.Protocol)
	}
	if got, want := bd.Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

func TestAttributionConcurrentSum(t *testing.T) {
	var c Clock
	const (
		workers = 8
		perW    = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				switch i % 4 {
				case 0:
					c.AdvanceCat(CatCompute, 3)
				case 1:
					c.AdvanceCat(CatMemory, 2)
				case 2:
					c.AdvanceCat(CatNetwork, 1)
				default:
					c.Steal(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Breakdown().Total(), Duration(c.Now()); got != want {
		t.Fatalf("Total() = %d, Now() = %d", got, want)
	}
}

func TestResetClearsAttribution(t *testing.T) {
	var c Clock
	c.AdvanceCat(CatMemory, 10)
	c.Steal(5)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Now() = %d after Reset", c.Now())
	}
	if bd := c.Breakdown(); bd.Total() != 0 {
		t.Fatalf("breakdown after Reset: %+v", bd)
	}
}

// TestClockSize pins the padding: back-to-back allocated clocks must not
// share a cache line (or the adjacent line the prefetcher pairs with it).
func TestClockSize(t *testing.T) {
	if got := unsafe.Sizeof(Clock{}); got != 128 {
		t.Fatalf("sizeof(Clock) = %d, want 128", got)
	}
}

// TestAdvanceToConcurrentMax: concurrent forward jumps to distinct
// targets must leave the clock at exactly the largest target — never the
// sum of two deltas computed from the same starting point.
func TestAdvanceToConcurrentMax(t *testing.T) {
	const workers, rounds = 8, 200
	for r := 0; r < rounds; r++ {
		var c Clock
		c.Advance(Duration(r))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				c.AdvanceToCat(Category(w%int(localCategories)), Time(1000+10*w+r))
			}(w)
		}
		close(start)
		wg.Wait()
		want := Time(1000 + 10*(workers-1) + r)
		if got := c.Now(); got != want {
			t.Fatalf("round %d: Now() = %d after concurrent AdvanceTo, want max target %d", r, got, want)
		}
		if got := c.Breakdown().Total(); Time(got) != want {
			t.Fatalf("round %d: Breakdown().Total() = %d, want %d", r, got, want)
		}
	}
}

// TestMixedChargesExactTotal drives AdvanceCat, AdvanceToCat and Steal
// from many goroutines at once. Phase one's jumps all target times the
// clock had already passed, so they are no-ops whatever the
// interleaving; phase two's jumps race only each other. Both totals are
// exact.
func TestMixedChargesExactTotal(t *testing.T) {
	const workers, per = 6, 2000
	var c Clock
	c.Advance(per)
	// Phase one, per goroutine: 667 charges of 2, 667 steals of 1, and
	// 666 jumps to targets below the starting time.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					c.AdvanceCat(Category(i%int(localCategories)), 2)
				case 1:
					c.Steal(1)
				default:
					c.AdvanceToCat(CatProtocol, Time(i))
				}
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), Time(per+workers*(667*2+667)); got != want {
		t.Fatalf("phase one: Now() = %d, want %d", got, want)
	}
	// Phase two: jumps only, every target far above the clock.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AdvanceToCat(CatNetwork, Time(1_000_000+w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Now(), Time(1_000_000+workers*per-1); got != want {
		t.Fatalf("phase two: Now() = %d, want %d", got, want)
	}
	if got := c.Breakdown().Total(); Time(got) != c.Now() {
		t.Fatalf("Breakdown().Total() = %d, Now() = %d", got, c.Now())
	}
}

// TestBreakdownMidRun: while other goroutines charge the clock, every
// breakdown snapshot lands between the Now() readings taken around it —
// the buckets are the clock, so attribution can never lag or lead it.
func TestBreakdownMidRun(t *testing.T) {
	var c Clock
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (w + i) % 3 {
				case 0:
					c.AdvanceCat(Category(i%int(localCategories)), 3)
				case 1:
					c.Steal(2)
				default:
					c.AdvanceToCat(CatProtocol, c.Now()+1)
				}
			}
		}(w)
	}
	for i := 0; i < 20000; i++ {
		before := c.Now()
		total := Time(c.Breakdown().Total())
		after := c.Now()
		if total < before || total > after {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: Breakdown().Total() = %d outside [%d, %d]", i, total, before, after)
		}
	}
	close(stop)
	wg.Wait()
	if got := c.Breakdown().Total(); Time(got) != c.Now() {
		t.Fatalf("at quiescence: Breakdown().Total() = %d, Now() = %d", got, c.Now())
	}
}
