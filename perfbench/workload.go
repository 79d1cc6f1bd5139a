package main

import (
	"fmt"

	"hamster"
	"hamster/internal/amsg"
	"hamster/internal/apps"
	"hamster/internal/bench"
	"hamster/internal/consengine"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/serve"
	"hamster/internal/simnet"
	"hamster/internal/smp"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

// A workload is a fixed list of cells. One pass builds every cell's
// cluster, runs its program, checks the output and closes the cluster.
type workload struct {
	name  string
	cells []cell
	// passSeconds is the nominal host time of one pass on a 2-core
	// host; it turns --seconds into the run's fixed pass count.
	passSeconds float64
}

// A cell is one program on one freshly built cluster.
type cell struct {
	name string
	// engine names the substrate family whose counters the cell feeds:
	// "scope" (swdsm), "ivy", or "core" (swdsm under the core services).
	engine string
	build  func() (instance, error)
	ref    reference
}

// An instance is a built cluster, ready to run its cell's program once.
type instance interface {
	// run executes the program; hook, when non-nil, decorates the
	// kernel each node runs.
	run(hook kernelHook) (output, error)
	model() model
	close()
}

// output is what a cell's program computed. Kernels report a float
// checksum; the serve fabric reports an integer checksum and op count.
type output struct {
	check    float64
	sum      uint64
	ops      uint64
	serveRep *serve.Report
}

// reference pins a cell's expected output and, where known, its modeled
// virtual time and protocol-message count. A zero virtualNs means the
// model has no pin and drift is measured against the run's first pass.
type reference struct {
	out       output
	virtualNs uint64
	msgs      uint64
}

func (r reference) matches(o output) bool {
	return r.out.check == o.check && r.out.sum == o.sum && r.out.ops == o.ops
}

// model is a cell's modeled (virtual) outcome, read through the public
// Stats/Clock/Breakdown accessors after the program ran.
type model struct {
	virtualNs uint64           // latest node clock
	bd        vclock.Breakdown // summed over nodes
	st        platform.Stats   // summed over nodes
	netMsgs   uint64
	netBytes  uint64
	calls     uint64
	callBytes uint64 // request plus response bytes
	serviced  uint64
	retries   uint64
}

// add accumulates o into m; virtual times add up across cells.
func (m *model) add(o model) {
	m.virtualNs += o.virtualNs
	m.bd = m.bd.Add(o.bd)
	addStats(&m.st, o.st)
	m.netMsgs += o.netMsgs
	m.netBytes += o.netBytes
	m.calls += o.calls
	m.callBytes += o.callBytes
	m.serviced += o.serviced
	m.retries += o.retries
}

// addStats accumulates the counters the benchmark reports.
func addStats(dst *platform.Stats, s platform.Stats) {
	dst.PageFaults += s.PageFaults
	dst.TwinsCreated += s.TwinsCreated
	dst.DiffsCreated += s.DiffsCreated
	dst.DiffBytes += s.DiffBytes
	dst.Invalidations += s.Invalidations
	dst.HomeMigrations += s.HomeMigrations
	dst.ProtocolMsgs += s.ProtocolMsgs
}

// readModel collects the modeled outcome of a substrate and the
// active-message layers under it.
func readModel(sub platform.Substrate, layers ...*amsg.Layer) model {
	var m model
	for i := 0; i < sub.Nodes(); i++ {
		c := sub.Clock(i)
		if t := uint64(c.Now()); t > m.virtualNs {
			m.virtualNs = t
		}
		m.bd = m.bd.Add(c.Breakdown())
		addStats(&m.st, sub.NodeStats(i))
	}
	for _, l := range layers {
		if l == nil {
			continue
		}
		msgs, bytes := l.Network().TotalTraffic()
		m.netMsgs += msgs
		m.netBytes += bytes
		for i := 0; i < l.Network().Size(); i++ {
			st := l.Stats(simnet.NodeID(i))
			calls, serviced, req, rsp := st.Snapshot()
			retries, _ := st.Faults()
			m.calls += calls
			m.callBytes += req + rsp
			m.serviced += serviced
			m.retries += retries
		}
	}
	return m
}

// layered is implemented by the software-DSM engines.
type layered interface{ Layer() *amsg.Layer }

func layerOf(sub platform.Substrate) *amsg.Layer {
	if l, ok := sub.(layered); ok {
		return l.Layer()
	}
	return nil
}

// kernelInstance runs an apps kernel on a bare consistency engine.
type kernelInstance struct {
	eng    consengine.Engine
	kernel apps.Kernel
}

func (k *kernelInstance) run(hook kernelHook) (output, error) {
	res := apps.RunOnSubstrate(k.eng, hook.apply(k.kernel))
	return output{check: res[0].Check}, nil
}

func (k *kernelInstance) model() model { return readModel(k.eng, layerOf(k.eng)) }
func (k *kernelInstance) close()       { k.eng.Close() }

func engineCell(engine, topology string, nodes int, name string, kernel apps.Kernel, ref reference) cell {
	return cell{
		name:   engine + "/" + name,
		engine: engine,
		ref:    ref,
		build: func() (instance, error) {
			eng, err := bench.BuildEngineTopo(engine, nodes, topology)
			if err != nil {
				return nil, err
			}
			return &kernelInstance{eng: eng, kernel: kernel}, nil
		},
	}
}

// jiaInstance runs an apps kernel through the core services with the
// JiaJia programming model on top.
type jiaInstance struct {
	sys    *jiajia.System
	kernel apps.Kernel
}

func (j *jiaInstance) run(hook kernelHook) (output, error) {
	res := apps.RunOnJia(j.sys, hook.apply(j.kernel))
	return output{check: res[0].Check}, nil
}

func (j *jiaInstance) model() model {
	rt := j.sys.Runtime()
	m := readModel(rt.Substrate(), rt.AMsg())
	msgs, bytes := rt.Network().TotalTraffic()
	m.netMsgs += msgs
	m.netBytes += bytes
	return m
}

func (j *jiaInstance) close() { j.sys.Shutdown() }

// serveInstance runs the serve fabric on a bare consistency engine.
type serveInstance struct {
	eng consengine.Engine
	cfg serve.Config
}

// run ignores the hook: serve.RunOnSubstrate binds its own Machine.
func (s *serveInstance) run(kernelHook) (output, error) {
	rep, err := serve.RunOnSubstrate(s.cfg, s.eng)
	if err != nil {
		return output{}, err
	}
	return output{sum: rep.Checksum, ops: rep.Applied, serveRep: rep}, nil
}

func (s *serveInstance) model() model { return readModel(s.eng, layerOf(s.eng)) }
func (s *serveInstance) close()       { s.eng.Close() }

// kernelHook decorates a kernel; the traced run uses it to put the
// benchmark's Machine between the kernel and the substrate.
type kernelHook func(apps.Kernel) apps.Kernel

func (h kernelHook) apply(k apps.Kernel) apps.Kernel {
	if h == nil {
		return k
	}
	return h(k)
}

// defaultSeed is the serve-kv seed of the committed serve campaign, whose
// outputs are pinned in refs.go.
const defaultSeed = 1009

var workloadNames = []string{"kernels-4n", "cluster-256n", "serve-kv"}

// workloadByName builds a workload's cells. Only serve-kv depends on the
// seed; the kernels' inputs are generated from fixed sizes.
func workloadByName(name string, seed uint64) (*workload, error) {
	switch name {
	case "kernels-4n":
		return kernels4n(), nil
	case "cluster-256n":
		return cluster256n(), nil
	case "serve-kv":
		return serveKV(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

// kernels4n is the per-access path: the kernel-wall suite on a 4-node
// bare software DSM under both page-protocol families.
func kernels4n() *workload {
	w := &workload{name: "kernels-4n", passSeconds: 0.26}
	kernels := []struct {
		name string
		k    apps.Kernel
	}{
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, 96) }},
		{"sor-opt", func(m apps.Machine) apps.Result { return apps.SOR(m, 192, 6, true) }},
		{"lu", func(m apps.Machine) apps.Result { return apps.LU(m, 96) }},
		{"stream", func(m apps.Machine) apps.Result { return apps.Stream(m, 1<<15, 8, memsim.Block) }},
	}
	for _, engine := range []string{consengine.ScopeName, consengine.IVYName} {
		for _, k := range kernels {
			name := engine + "/" + k.name
			w.cells = append(w.cells, engineCell(engine, simnet.TopoFlat, 4, k.name, k.k, pinned[name]))
		}
	}
	return w
}

// cluster256n is the interaction-heavy workload: 256-node rack clusters
// plus WATER through the core services.
func cluster256n() *workload {
	w := &workload{name: "cluster-256n", passSeconds: 0.80}
	sor := func(m apps.Machine) apps.Result { return apps.SOR(m, 256, 2, true) }
	stream := func(m apps.Machine) apps.Result { return apps.Stream(m, 65536, 2, memsim.Block) }
	for _, engine := range []string{consengine.ScopeName, consengine.IVYName} {
		w.cells = append(w.cells,
			engineCell(engine, simnet.TopoRack, 256, "sor-opt-strong", sor, pinned[engine+"/sor-opt-strong"]),
			engineCell(engine, simnet.TopoRack, 256, "stream-weak", stream, pinned[engine+"/stream-weak"]))
	}
	water := func(m apps.Machine) apps.Result { return apps.Water(m, 288, 2) }
	w.cells = append(w.cells, cell{
		name:   "core/water",
		engine: "core",
		ref:    pinned["core/water"],
		build: func() (instance, error) {
			sys, err := jiajia.Boot(hamster.Config{Platform: hamster.SWDSM, Nodes: 4})
			if err != nil {
				return nil, err
			}
			return &jiaInstance{sys: sys, kernel: water}, nil
		},
	})
	return w
}

// serveConfig is the serve campaign's headline cell at the given seed.
func serveConfig(seed uint64) serve.Config {
	return serve.Config{
		Workload:  serve.WorkloadKV,
		Seed:      seed,
		Windows:   160,
		WindowNs:  500_000,
		MeanGapNs: 600,
		Sessions:  2_000_000,
		ZipfSkew:  0.99,
	}
}

const serveNodes = 16

// serveKV is open-loop KV traffic on the 16-node scope engine. For a seed
// without a pinned reference, the same seed runs once on the smp
// substrate first; its checksum and op count become the reference.
func serveKV(seed uint64) (*workload, error) {
	cfg := serveConfig(seed)
	ref, ok := pinned[fmt.Sprintf("scope/kv@%d", seed)]
	if !ok {
		sub, err := smp.New(smp.Config{CPUs: serveNodes})
		if err != nil {
			return nil, err
		}
		rep, err := serve.RunOnSubstrate(cfg, sub)
		sub.Close()
		if err != nil {
			return nil, fmt.Errorf("serve-kv smp reference: %w", err)
		}
		ref = reference{out: output{sum: rep.Checksum, ops: rep.Applied}}
	}
	return &workload{name: "serve-kv", passSeconds: 1.08, cells: []cell{{
		name:   "scope/kv",
		engine: consengine.ScopeName,
		ref:    ref,
		build: func() (instance, error) {
			eng, err := bench.BuildEngineTopo(consengine.ScopeName, serveNodes, simnet.TopoFlat)
			if err != nil {
				return nil, err
			}
			return &serveInstance{eng: eng, cfg: cfg}, nil
		},
	}}}, nil
}
