package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hamster/internal/apps"
	"hamster/internal/memsim"
)

// span is one timed interval of the traced run. Spans of one cell share
// the cell's id; parent is the span that caused this one (0 for a pass).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Cell   int64  `json:"cell"`
	Name   string `json:"name"`
	Node   int    `json:"node"` // -1 on the benchmark's own goroutine
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans a traced run keeps in memory; Machine-call
// spans beyond it are counted as dropped, never silently lost.
const maxSpans = 200_000

// samplePeriod is the mean number of word accesses between two timed
// ones. Every access is counted; about one in samplePeriod is timed.
const samplePeriod = 16

// tracer records spans in memory and the Machine-call totals of the
// traced passes.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int
	// full stops nodes recording spans; it changes only between cells.
	full bool
	mc   machineTotals
	// clockNs is the cost of one clock read, which every timed call
	// includes once; it is taken off each Machine-call duration.
	clockNs int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	const reads = 1 << 16
	var sum int64
	for i := 0; i < reads; i++ {
		a := t.now()
		sum += t.now() - a
	}
	t.clockNs = sum / reads
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span on the benchmark's goroutine and returns its id.
func (t *tracer) open(name string, parent, cell int64) int64 {
	id := int64(len(t.spans) + 1)
	if cell == 0 {
		cell = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: cell, Name: name, Node: -1, Start: t.now()})
	return id
}

func (t *tracer) end(id int64) { t.spans[id-1].End = t.now() }

// machineTotals sums the Machine calls of traced cells.
type machineTotals struct {
	words, sampled     uint64
	sampledNs          int64
	blocks, blockWords uint64
	blockNs            int64
	barrierNs, lockNs  int64
	unlockNs           int64
	// coreLockNs is lock wait inside cells run through the core services.
	coreLockNs int64
}

func (m *machineTotals) add(r *nodeRec, core bool) {
	m.words += r.words
	m.sampled += r.sampled
	m.sampledNs += r.sampledNs
	m.blocks += r.blocks
	m.blockWords += r.blockWords
	m.blockNs += r.blockNs
	m.barrierNs += r.barrierNs
	m.lockNs += r.lockNs
	m.unlockNs += r.unlockNs
	if core {
		m.coreLockNs += r.lockNs
	}
}

// cellTrace collects the per-node records of one traced cell run.
type cellTrace struct {
	t    *tracer
	mu   sync.Mutex
	recs []*nodeRec
}

// hook puts a tracedMachine between each node's kernel and its Machine.
func (c *cellTrace) hook(k apps.Kernel) apps.Kernel {
	return func(m apps.Machine) apps.Result {
		rec := &nodeRec{t: c.t, node: m.ID(), rng: uint64(m.ID())*0x9E3779B97F4A7C15 + 1}
		c.mu.Lock()
		c.recs = append(c.recs, rec)
		c.mu.Unlock()
		return k(&tracedMachine{Machine: m, rec: rec})
	}
}

// finish merges the node records into the tracer under the run span.
func (c *cellTrace) finish(run, cell int64, core bool) {
	sort.Slice(c.recs, func(i, j int) bool { return c.recs[i].node < c.recs[j].node })
	for _, r := range c.recs {
		c.t.mc.add(r, core)
		c.t.dropped += r.dropped
		for _, s := range r.spans {
			if len(c.t.spans) >= maxSpans {
				c.t.dropped++
				continue
			}
			s.ID = int64(len(c.t.spans) + 1)
			s.Parent, s.Cell = run, cell
			c.t.spans = append(c.t.spans, s)
		}
	}
	c.t.full = len(c.t.spans) >= maxSpans
}

// nodeRec is one node's Machine-call record; only its node's goroutine
// writes it while the cell runs.
type nodeRec struct {
	t                  *tracer
	node               int
	words, sampled     uint64
	sampledNs          int64
	blocks, blockWords uint64
	blockNs            int64
	barrierNs, lockNs  int64
	unlockNs           int64
	spans              []span
	dropped            int
	rng, untilSample   uint64
}

// timed records a span for a Machine call that began at start and
// returns its duration without the clock read.
func (r *nodeRec) timed(name string, start int64) int64 {
	end := r.t.now()
	if r.t.full {
		r.dropped++
	} else {
		r.spans = append(r.spans, span{Name: name, Node: r.node, Start: start, End: end})
	}
	if d := end - start - r.t.clockNs; d > 0 {
		return d
	}
	return 0
}

// word counts a word access and reports whether to time this one. The
// gap to the next timed access is drawn from [1, 2*samplePeriod-1], so
// the sample cannot lock onto a kernel's stride (a page holds a multiple
// of samplePeriod words).
func (r *nodeRec) word() bool {
	r.words++
	if r.untilSample > 1 {
		r.untilSample--
		return false
	}
	r.rng ^= r.rng << 13 // xorshift64
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	r.untilSample = 1 + r.rng%(2*samplePeriod-1)
	return true
}

func (r *nodeRec) sample(name string, start int64) {
	r.sampled++
	r.sampledNs += r.timed(name, start)
}

func (r *nodeRec) block(start int64, words int) {
	r.blocks++
	r.blockWords += uint64(words)
	r.blockNs += r.timed("block", start)
}

// tracedMachine is the benchmark's apps.Machine: it forwards every call
// to the substrate's Machine and records counts and spans on the way.
type tracedMachine struct {
	apps.Machine
	rec *nodeRec
}

func (m *tracedMachine) ReadF64(a memsim.Addr) float64 {
	if !m.rec.word() {
		return m.Machine.ReadF64(a)
	}
	t0 := m.rec.t.now()
	v := m.Machine.ReadF64(a)
	m.rec.sample("read", t0)
	return v
}

func (m *tracedMachine) WriteF64(a memsim.Addr, v float64) {
	if !m.rec.word() {
		m.Machine.WriteF64(a, v)
		return
	}
	t0 := m.rec.t.now()
	m.Machine.WriteF64(a, v)
	m.rec.sample("write", t0)
}

func (m *tracedMachine) ReadI64(a memsim.Addr) int64 {
	if !m.rec.word() {
		return m.Machine.ReadI64(a)
	}
	t0 := m.rec.t.now()
	v := m.Machine.ReadI64(a)
	m.rec.sample("read", t0)
	return v
}

func (m *tracedMachine) WriteI64(a memsim.Addr, v int64) {
	if !m.rec.word() {
		m.Machine.WriteI64(a, v)
		return
	}
	t0 := m.rec.t.now()
	m.Machine.WriteI64(a, v)
	m.rec.sample("write", t0)
}

func (m *tracedMachine) ReadF64Block(a memsim.Addr, dst []float64) {
	t0 := m.rec.t.now()
	m.Machine.ReadF64Block(a, dst)
	m.rec.block(t0, len(dst))
}

func (m *tracedMachine) WriteF64Block(a memsim.Addr, src []float64) {
	t0 := m.rec.t.now()
	m.Machine.WriteF64Block(a, src)
	m.rec.block(t0, len(src))
}

func (m *tracedMachine) ReadI64Block(a memsim.Addr, dst []int64) {
	t0 := m.rec.t.now()
	m.Machine.ReadI64Block(a, dst)
	m.rec.block(t0, len(dst))
}

func (m *tracedMachine) WriteI64Block(a memsim.Addr, src []int64) {
	t0 := m.rec.t.now()
	m.Machine.WriteI64Block(a, src)
	m.rec.block(t0, len(src))
}

func (m *tracedMachine) Barrier() {
	t0 := m.rec.t.now()
	m.Machine.Barrier()
	m.rec.barrierNs += m.rec.timed("barrier", t0)
}

func (m *tracedMachine) Lock(i int) {
	t0 := m.rec.t.now()
	m.Machine.Lock(i)
	m.rec.lockNs += m.rec.timed("lock", t0)
}

func (m *tracedMachine) Unlock(i int) {
	t0 := m.rec.t.now()
	m.Machine.Unlock(i)
	m.rec.unlockNs += m.rec.timed("unlock", t0)
}

// selfTimes returns each span name's total self time: its duration minus
// the part of it that its children cover. Children of one span may run
// in parallel on several nodes, so their intervals are merged first.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(kids[s.ID])
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
