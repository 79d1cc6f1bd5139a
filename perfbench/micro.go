package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hamster/internal/amsg"
	"hamster/internal/ivy"
	"hamster/internal/loadgen"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
)

// A micro is one layer's hot path called through its public API. setup
// returns the operation and a teardown; perOp divides one call of the
// operation into the unit the metric reports.
type micro struct {
	name     string // metric stem: <name>_ns and <name>_allocs
	workload string // the workload whose layer does this work
	perOp    int
	setup    func() (op func(), teardown func(), err error)
}

var sinkF64 float64
var sinkInt int

func micros() []micro {
	return []micro{
		{"vclock.advance", "kernels-4n", 1, func() (func(), func(), error) {
			c := &vclock.Clock{}
			return func() { c.AdvanceCat(vclock.CatMemory, 1) }, func() {}, nil
		}},
		{"vclock.vlock", "kernels-4n", 1, func() (func(), func(), error) {
			l, c := vclock.NewVLock(), &vclock.Clock{}
			return func() { l.Acquire(c, 10, 10); l.Release(c, 10) }, func() {}, nil
		}},
		{"swdsm.read_hit", "kernels-4n", 1, func() (func(), func(), error) {
			d, err := swdsm.New(swdsm.Config{Nodes: 2})
			if err != nil {
				return nil, nil, err
			}
			r, err := d.Alloc(memsim.PageSize, "readhit", memsim.Fixed, 0)
			if err != nil {
				d.Close()
				return nil, nil, err
			}
			d.ReadF64(1, r.Base) // fetch once; every timed read hits the cached copy
			return func() { sinkF64 = d.ReadF64(1, r.Base) }, d.Close, nil
		}},
		{"ivy.read_hit", "kernels-4n", 1, func() (func(), func(), error) {
			d, err := ivy.New(ivy.Config{Nodes: 2})
			if err != nil {
				return nil, nil, err
			}
			r, err := d.Alloc(memsim.PageSize, "readhit", memsim.Fixed, 0)
			if err != nil {
				d.Close()
				return nil, nil, err
			}
			d.ReadF64(1, r.Base)
			return func() { sinkF64 = d.ReadF64(1, r.Base) }, d.Close, nil
		}},
		// One op misses on every page: a 4-page working set through a
		// 2-page cache, each read fetching from the home node.
		{"swdsm.page_fetch", "cluster-256n", 4, func() (func(), func(), error) {
			const pages = 4
			d, err := swdsm.New(swdsm.Config{Nodes: 2, CachePages: pages / 2})
			if err != nil {
				return nil, nil, err
			}
			r, err := d.Alloc(pages*memsim.PageSize, "fetch", memsim.Fixed, 0)
			if err != nil {
				d.Close()
				return nil, nil, err
			}
			return func() {
				for i := 0; i < pages; i++ {
					sinkF64 = d.ReadF64(1, r.Base+memsim.Addr(i*memsim.PageSize))
				}
			}, d.Close, nil
		}},
		// One op is a scope interval that dirties 8 remote pages and
		// flushes their diffs on release.
		{"swdsm.diff_flush", "cluster-256n", 1, func() (func(), func(), error) {
			const pages = 8
			d, err := swdsm.New(swdsm.Config{Nodes: 2, CachePages: 2 * pages})
			if err != nil {
				return nil, nil, err
			}
			r, err := d.Alloc(pages*memsim.PageSize, "flush", memsim.Fixed, 0)
			if err != nil {
				d.Close()
				return nil, nil, err
			}
			l := d.NewLock()
			var tick float64
			return func() {
				tick++ // a fresh value per interval keeps every diff non-empty
				d.Acquire(1, l)
				for i := 0; i < pages; i++ {
					d.WriteF64(1, r.Base+memsim.Addr(i*memsim.PageSize), tick)
				}
				d.Release(1, l)
				d.Acquire(0, l)
				d.Release(0, l)
			}, d.Close, nil
		}},
		{"simnet.send_recv", "cluster-256n", 1, func() (func(), func(), error) {
			net := simnet.New(machine.Default().Ethernet, []*vclock.Clock{{}, {}})
			payload := make([]byte, 64)
			return func() {
				net.Send(0, 1, 1, 0, payload)
				if m := net.TryRecv(1, simnet.AnyKind, nil); m != nil {
					m.Free()
				}
			}, net.Close, nil
		}},
		{"amsg.call", "cluster-256n", 1, func() (func(), func(), error) {
			link := machine.Default().Ethernet
			net := simnet.New(link, []*vclock.Clock{{}, {}})
			l := amsg.New(net, link)
			resp := make([]byte, 64)
			l.Register(1, 1, func(amsg.NodeID, []byte) ([]byte, vclock.Duration) { return resp, 0 })
			req := make([]byte, 16)
			return func() { l.Call(0, 1, 1, req) }, net.Close, nil
		}},
		{"loadgen.zipf_sample", "serve-kv", 1, func() (func(), func(), error) {
			z, s := loadgen.NewZipf(1<<16, 0.99), loadgen.NewStream(1)
			return func() { sinkInt = z.Sample(s) }, func() {}, nil
		}},
		{"loadgen.hist_add", "serve-kv", 1, func() (func(), func(), error) {
			var h loadgen.Hist
			s := loadgen.NewStream(1)
			return func() { h.Add(s.Next() % 100_000_000) }, func() {}, nil
		}},
	}
}

// microBatch is the host time one timed batch of a micro aims for.
const microBatch = 20 * time.Millisecond

// microBatches is how many timed batches give the reported median.
const microBatches = 5

// runMicro measures one micro: ns and heap allocations per reported
// unit, the median over microBatches batches.
func runMicro(mc micro) (nsPerOp, allocsPerOp float64, err error) {
	op, teardown, err := mc.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("micro %s: %w", mc.name, err)
	}
	defer teardown()
	n := 1
	for {
		if d := timeBatch(op, n); d >= microBatch || n >= 1<<30 {
			break
		} else if d <= 0 {
			n *= 100
		} else {
			n = int(float64(n) * 1.2 * float64(microBatch) / float64(d))
		}
	}
	var ns, allocs []float64
	var ms runtime.MemStats
	for i := 0; i < microBatches; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		d := timeBatch(op, n)
		runtime.ReadMemStats(&ms)
		units := float64(n * mc.perOp)
		ns = append(ns, float64(d)/units)
		allocs = append(allocs, float64(ms.Mallocs-before)/units)
	}
	return median(ns), median(allocs), nil
}

func timeBatch(op func(), n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return time.Since(t0)
}

// median of a non-empty sample (it is sorted in place).
func median(v []float64) float64 {
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
