// Package flownet converts a physical topology plus a hardware placement
// into the augmented single-source single-sink capacity-constrained directed
// graph of paper §3.2, and answers the questions Moment's planner asks of
// it: the minimum epoch I/O completion time (exact, by Newton steps on
// max-flow min cuts), per-GPU inlet bandwidth, per-storage-bin traffic
// (DDAK's Bin_traffic input), and per-link utilization (QPI contention
// analysis, Fig 17).
//
// Node classes follow the paper: storage nodes (SSDs, per-socket DRAM
// feature caches, per-GPU HBM caches serving peers), interconnect nodes
// (root complexes and PCIe switches), computation nodes (GPUs), and the
// virtual source/sink. Physical links are rate edges (bytes/second, scaled
// by the horizon); virtual source/sink arcs are fixed byte budgets. PCIe
// and QPI are full duplex, so each physical link contributes one directed
// edge per direction with independent capacity.
//
// Local HBM cache hits never touch the fabric, so callers subtract them
// from per-GPU demand before building a Demand; only the peer-served share
// of each GPU cache enters the network as a storage node.
package flownet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"moment/internal/maxflow"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// Demand carries the per-epoch byte budgets the network must route.
// All quantities are bytes per epoch (or per whatever window the caller
// scores; only ratios matter for throughput).
type Demand struct {
	// PerGPU is the fabric-delivered byte demand of each GPU (local HBM
	// hits already excluded). len == Machine.NumGPUs.
	PerGPU []float64

	// HBMPeer is the byte budget each GPU cache serves to *other* GPUs.
	// len == Machine.NumGPUs. May be nil (no GPU caching).
	HBMPeer []float64

	// DRAM is the byte budget served by each socket's CPU-memory cache,
	// keyed by root-complex ID. May be nil.
	DRAM map[string]float64

	// SSDTotal is the byte budget served by the SSD tier as a whole; the
	// max-flow solution decides the per-SSD split (which DDAK then
	// realizes in the data layout).
	SSDTotal float64

	// SSDPer optionally pins per-SSD byte budgets (post-DDAK evaluation
	// of a concrete data placement). When non-nil it overrides SSDTotal.
	SSDPer []float64
}

// TotalDemand sums the per-GPU demands.
func (d *Demand) TotalDemand() float64 {
	t := 0.0
	for _, v := range d.PerGPU {
		t += v
	}
	return t
}

// TotalSupply sums all storage budgets.
func (d *Demand) TotalSupply() float64 {
	t := 0.0
	for _, v := range d.HBMPeer {
		t += v
	}
	for _, v := range d.DRAM {
		t += v
	}
	if d.SSDPer != nil {
		for _, v := range d.SSDPer {
			t += v
		}
	} else {
		t += d.SSDTotal
	}
	return t
}

// Fingerprint hashes the demand into a compact cache-key fragment: two
// demands with equal fingerprints route the same byte budgets (up to hash
// collision), so a placement score computed for one is valid for the other.
// Nil-ness of HBMPeer and SSDPer is part of the fingerprint — it changes
// the network structure (GPU cache nodes, SSD pool aggregator), not just
// edge budgets. DRAM keys are visited in sorted order for stability.
func (d *Demand) Fingerprint() uint64 {
	h := scorecache.NewHasher()
	h.Floats(d.PerGPU)
	h.Uint(nilMark(d.HBMPeer == nil))
	h.Floats(d.HBMPeer)
	keys := make([]string, 0, len(d.DRAM))
	for k := range d.DRAM {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.Uint(uint64(len(keys)))
	for _, k := range keys {
		h.String(k)
		h.Float(d.DRAM[k])
	}
	h.Float(d.SSDTotal)
	h.Uint(nilMark(d.SSDPer == nil))
	h.Floats(d.SSDPer)
	return h.Sum()
}

func nilMark(isNil bool) uint64 {
	if isNil {
		return 1
	}
	return 0
}

// Network is the built flow network with node bookkeeping.
type Network struct {
	G    *maxflow.Graph
	S, T int

	Machine   *topology.Machine
	Placement *topology.Placement

	nodes   fabricNodes // node indices of the last build, kept as arena
	demand  *Demand
	bis     *maxflow.TimeBisector
	solvedT float64       // horizon of the last Solve; 0 if unsolved
	obsrv   *obs.Observer // nil = no instrumentation

	// Edge bookkeeping for metrics.
	demandEdge []maxflow.EdgeID            // gpu -> t
	supplyHBM  []maxflow.EdgeID            // s -> hbm_i
	supplyDRAM map[string]maxflow.EdgeID   // s -> dram_k
	supplySSD  []maxflow.EdgeID            // s -> ssd_i (or pool -> ssd_i)
	supplyPool maxflow.EdgeID              // s -> ssdpool (-1 when SSDPer pins budgets)
	qpiEdges   []maxflow.EdgeID            // both directions
	linkEdges  map[string][]maxflow.EdgeID // named physical links -> edges
	linkRate   map[string]float64          // named physical links -> per-direction rate sum
}

// Build constructs the augmented communication graph for machine m under
// placement p with demand d. The placement must validate against m.
func Build(m *topology.Machine, p *topology.Placement, d *Demand) (*Network, error) {
	return BuildReuse(m, p, d, nil)
}

// BuildReuse is Build with an arena: when scratch is non-nil its graph,
// bisector, maps, and bookkeeping slices are cleared and rebuilt in place
// instead of reallocated, and scratch itself is returned. The planner's
// scoring loop builds thousands of networks that differ only in placement;
// threading one scratch Network per worker through BuildReuse keeps those
// rebuilds out of the allocator (see maxflow.Graph.Clear and
// TimeBisector.Reinit). Passing nil scratch is exactly Build. On error the
// scratch is left in an unusable, partially-reset state and must not be
// Solved, but may be passed to BuildReuse again.
func BuildReuse(m *topology.Machine, p *topology.Placement, d *Demand, scratch *Network) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(m); err != nil {
		return nil, err
	}
	if err := d.check(m, ""); err != nil {
		return nil, err
	}

	n := scratch
	if n == nil {
		n = &Network{
			G:          maxflow.New(0),
			supplyDRAM: map[string]maxflow.EdgeID{},
			linkEdges:  map[string][]maxflow.EdgeID{},
			linkRate:   map[string]float64{},
		}
	} else {
		n.G.Clear()
		clear(n.supplyDRAM)
		clear(n.linkEdges)
		clear(n.linkRate)
		n.qpiEdges = n.qpiEdges[:0] // observer (n.obsrv) survives reuse
	}
	n.Machine, n.Placement, n.demand = m, p, d
	n.supplyPool = -1
	n.solvedT = 0
	g := n.G
	n.S = g.AddNode("s")
	n.T = g.AddNode("t")
	dem := d.TotalDemand()
	if n.bis == nil {
		n.bis = maxflow.NewTimeBisector(g, n.S, n.T, dem)
	} else {
		n.bis.Reinit(g, n.S, n.T, dem)
	}
	n.demandEdge = resize(n.demandEdge, m.NumGPUs)
	n.supplyHBM = resize(n.supplyHBM, m.NumGPUs)
	for i := range n.supplyHBM {
		n.supplyHBM[i] = -1
	}
	n.supplySSD = resize(n.supplySSD, m.NumSSDs)
	f := fabric{g: g, bis: n.bis, net: n}
	if err := f.build(m, p, d, n.S, n.T, "", &n.nodes); err != nil {
		return nil, err
	}
	return n, nil
}

// check validates d against machine m; node names the cluster node in
// errors ("node 3 ", or "" for a single machine).
func (d *Demand) check(m *topology.Machine, node string) error {
	if len(d.PerGPU) != m.NumGPUs {
		return fmt.Errorf("flownet: %sdemand for %d GPUs, machine has %d", node, len(d.PerGPU), m.NumGPUs)
	}
	if d.HBMPeer != nil && len(d.HBMPeer) != m.NumGPUs {
		return fmt.Errorf("flownet: %sHBMPeer for %d GPUs, machine has %d", node, len(d.HBMPeer), m.NumGPUs)
	}
	if d.SSDPer != nil && len(d.SSDPer) != m.NumSSDs {
		return fmt.Errorf("flownet: %sSSDPer for %d SSDs, machine has %d", node, len(d.SSDPer), m.NumSSDs)
	}
	supply, dem := d.TotalSupply(), d.TotalDemand()
	if supply < dem-1e-6-1e-9*dem {
		return fmt.Errorf("flownet: %sstorage supply %.0f < GPU demand %.0f", node, supply, dem)
	}
	return nil
}

// fabricNodes indexes one machine's nodes in a flow graph.
type fabricNodes struct {
	ap   map[string]int // interconnect node per attach point
	gpu  []int          // computation node per GPU
	hbm  []int          // peer-serving cache node per GPU (-1 if absent)
	dram []int          // storage node per socket, in RootComplexes order
	ssd  []int          // storage node per SSD
}

// fabric builds machines' subgraphs into a graph under construction,
// registering every edge with the min-time bisector. A single-machine
// Network records its metric bookkeeping in net; a ClusterNetwork lists
// every edge in rec instead.
type fabric struct {
	g   *maxflow.Graph
	bis *maxflow.TimeBisector
	net *Network       // single-machine edge bookkeeping; nil in a cluster
	rec *[]ClusterEdge // cluster edge listing; nil for a single machine
}

// rate adds a bandwidth edge u→v of rate bytes/second.
func (f fabric) rate(u, v int, rate float64) maxflow.EdgeID {
	e := f.g.AddEdge(u, v, 0)
	f.bis.AddRateEdge(e, rate)
	if f.rec != nil {
		*f.rec = append(*f.rec, ClusterEdge{f.g.Label(u), f.g.Label(v), "rate", rate})
	}
	return e
}

// fixed adds a horizon-independent byte budget u→v.
func (f fabric) fixed(u, v int, bytes float64) maxflow.EdgeID {
	e := f.g.AddEdge(u, v, 0)
	f.bis.AddFixedEdge(e, bytes)
	if f.rec != nil {
		*f.rec = append(*f.rec, ClusterEdge{f.g.Label(u), f.g.Label(v), "fixed", bytes})
	}
	return e
}

// build adds machine m's single-machine subgraph under placement p,
// routing demand d from s to t, with every node label prefixed by prefix.
// In order: interconnect nodes, QPI and switch uplinks (PCIe and QPI are
// full duplex: one rate edge per direction), GPU slot links and demand
// arcs, HBM peer caches with their egress and NVLinks, per-socket DRAM,
// then the SSD pool and bays. nodes receives the node indices, reusing
// its storage.
func (f fabric) build(m *topology.Machine, p *topology.Placement, d *Demand, s, t int, prefix string, nodes *fabricNodes) error {
	g, n := f.g, f.net
	if nodes.ap == nil {
		nodes.ap = make(map[string]int, len(m.Points))
	} else {
		clear(nodes.ap)
	}
	for _, pt := range m.Points {
		nodes.ap[pt.ID] = g.AddNode(prefix + pt.ID)
	}
	rcs := m.RootComplexes()
	for i := 0; i < len(rcs); i++ {
		for j := i + 1; j < len(rcs); j++ {
			a, b := nodes.ap[rcs[i]], nodes.ap[rcs[j]]
			e1 := f.rate(a, b, float64(m.QPIBW))
			e2 := f.rate(b, a, float64(m.QPIBW))
			if n != nil {
				n.qpiEdges = append(n.qpiEdges, e1, e2)
				n.trackLink("qpi:"+rcs[i]+"-"+rcs[j], float64(m.QPIBW), e1, e2)
			}
		}
	}
	for _, pt := range m.Points {
		if pt.Kind != topology.Switch {
			continue
		}
		up, down := nodes.ap[pt.Parent], nodes.ap[pt.ID]
		e1 := f.rate(up, down, float64(pt.UplinkBW))
		e2 := f.rate(down, up, float64(pt.UplinkBW))
		if n != nil {
			n.trackLink("uplink:"+pt.Parent+"-"+pt.ID, float64(pt.UplinkBW), e1, e2)
		}
	}

	// Computation nodes and their ingress links.
	nodes.gpu = resize(nodes.gpu, m.NumGPUs)
	for i := range nodes.gpu {
		nodes.gpu[i] = g.AddNode(prefix + "gpu" + strconv.Itoa(i))
		in := f.rate(nodes.ap[p.GPUAt[i]], nodes.gpu[i], float64(m.PCIeX16))
		de := f.fixed(nodes.gpu[i], t, d.PerGPU[i])
		if n != nil {
			n.trackLink("slot:"+p.GPUAt[i]+"-gpu"+strconv.Itoa(i), float64(m.PCIeX16), in)
			n.demandEdge[i] = de
		}
	}

	// HBM peer-serving storage nodes: egress over the GPU's own x16 link
	// (duplex: independent of its ingress), plus NVLink shortcuts.
	nodes.hbm = resize(nodes.hbm, m.NumGPUs)
	for i := range nodes.hbm {
		nodes.hbm[i] = -1
	}
	if d.HBMPeer != nil {
		for i := range nodes.hbm {
			nodes.hbm[i] = g.AddNode(prefix + "hbm" + strconv.Itoa(i))
			se := f.fixed(s, nodes.hbm[i], d.HBMPeer[i])
			out := f.rate(nodes.hbm[i], nodes.ap[p.GPUAt[i]], float64(m.PCIeX16))
			if n != nil {
				n.supplyHBM[i] = se
				n.trackLink("p2p-egress:gpu"+strconv.Itoa(i), float64(m.PCIeX16), out)
			}
		}
		for _, nv := range m.NVLinks {
			// NVLink lets each side's cache feed the other directly.
			e1 := f.rate(nodes.hbm[nv.A], nodes.gpu[nv.B], float64(m.NVLinkBW))
			e2 := f.rate(nodes.hbm[nv.B], nodes.gpu[nv.A], float64(m.NVLinkBW))
			if n != nil {
				n.trackLink("nvlink:gpu"+strconv.Itoa(nv.A)+"-gpu"+strconv.Itoa(nv.B), float64(m.NVLinkBW), e1, e2)
			}
		}
	}

	// DRAM storage nodes (per socket).
	nodes.dram = resize(nodes.dram, len(rcs))
	for i, rc := range rcs {
		nodes.dram[i] = g.AddNode(prefix + "dram:" + rc)
		se := f.fixed(s, nodes.dram[i], d.DRAM[rc])
		out := f.rate(nodes.dram[i], nodes.ap[rc], float64(m.DRAMBW))
		if n != nil {
			n.supplyDRAM[rc] = se
			n.trackLink("dram-egress:"+rc, float64(m.DRAMBW), out)
		}
	}
	for rc := range d.DRAM {
		if !slices.Contains(rcs, rc) {
			return fmt.Errorf("flownet: DRAM budget for unknown socket %q", rc)
		}
	}

	// SSD storage nodes. Each SSD's service rate is min(device BW, bay
	// link); with a free tier budget an aggregator pool lets max-flow
	// choose the per-SSD split.
	ssdRate := math.Min(float64(m.SSDBW), float64(m.PCIeX4))
	pool := -1
	if d.SSDPer == nil && m.NumSSDs > 0 {
		pool = g.AddNode(prefix + "ssdpool")
		se := f.fixed(s, pool, d.SSDTotal)
		if n != nil {
			n.supplyPool = se
		}
	}
	nodes.ssd = resize(nodes.ssd, m.NumSSDs)
	for i := range nodes.ssd {
		nodes.ssd[i] = g.AddNode(prefix + "ssd" + strconv.Itoa(i))
		var se maxflow.EdgeID
		if d.SSDPer != nil {
			se = f.fixed(s, nodes.ssd[i], d.SSDPer[i])
		} else {
			se = f.rate(pool, nodes.ssd[i], maxflow.Inf)
		}
		out := f.rate(nodes.ssd[i], nodes.ap[p.SSDAt[i]], ssdRate)
		if n != nil {
			n.supplySSD[i] = se
			n.trackLink("bay:"+p.SSDAt[i]+"-ssd"+strconv.Itoa(i), ssdRate, out)
		}
	}
	return nil
}

// resize returns s truncated or regrown to length n, reusing the backing
// array when it is large enough — the slice half of the BuildReuse arena.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func (n *Network) trackLink(name string, rate float64, edges ...maxflow.EdgeID) {
	n.linkEdges[name] = append(n.linkEdges[name], edges...)
	n.linkRate[name] += rate * float64(len(edges))
}

// Check, when non-nil, audits every solved network before Solve returns
// (flow certificate, supply/utilization invariants). It is installed by
// internal/verify when self-verification is enabled; declared here rather
// than imported so flownet does not depend on the verification subsystem.
var Check func(*Network) error

// SetObserver attaches an observer so each Solve reports solver work
// (augmenting paths, min-time solves and Newton steps, wall time). Nil
// detaches.
func (n *Network) SetObserver(o *obs.Observer) { n.obsrv = o }

// SetContext attaches a cancellation context to subsequent Solves: an
// abandoned caller (e.g. a disconnected planning request) stops the
// min-time search at its next max-flow solve instead of running it to
// completion. Nil detaches; BuildReuse detaches automatically (via
// TimeBisector.Reinit), so a recycled scratch network never inherits a
// stale context.
func (n *Network) SetContext(ctx context.Context) { n.bis.Ctx = ctx }

// Solve finds the minimum time to deliver all per-GPU demand (exact; see
// maxflow.TimeBisector.MinTime). The flow for that horizon stays on the
// graph for the metric accessors below.
func (n *Network) Solve() (units.Duration, error) {
	o := n.obsrv
	var before maxflow.SolveStats
	var wall time.Time
	if o != nil {
		before = n.G.Stats()
		wall = time.Now()
	}
	t, err := n.bis.MinTime()
	if o != nil {
		after := n.G.Stats()
		o.Counter("maxflow_solves_total").Add(float64(after.Solves - before.Solves))
		o.Counter("maxflow_augmenting_paths_total").Add(float64(after.AugmentingPaths - before.AugmentingPaths))
		o.Histogram("maxflow_bisection_iterations").Observe(float64(n.bis.Iterations))
		o.Histogram("maxflow_bisection_probes").Observe(float64(n.bis.Probes))
		o.Histogram("flownet_solve_seconds").Observe(time.Since(wall).Seconds())
	}
	if err != nil {
		if o != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			o.Counter("flownet_infeasible_total").Inc()
		}
		return 0, fmt.Errorf("flownet: %s/%s: %w", n.Machine.Name, n.Placement.Name, err)
	}
	n.solvedT = t
	if Check != nil {
		if err := Check(n); err != nil {
			return 0, fmt.Errorf("flownet: %s/%s: self-check failed: %w",
				n.Machine.Name, n.Placement.Name, err)
		}
	}
	return units.Seconds(t), nil
}

// SolveCounters reports the work of the most recent Solve: its max-flow
// solves (probes) and Newton steps (iterations).
func (n *Network) SolveCounters() (probes, iterations int) {
	return n.bis.Probes, n.bis.Iterations
}

// Demand returns the demand the network was built for.
func (n *Network) Demand() *Demand { return n.demand }

// SolvedHorizon returns the horizon (seconds) of the last successful Solve,
// or 0 if the network is unsolved.
func (n *Network) SolvedHorizon() float64 { return n.solvedT }

// Throughput returns aggregate delivered bytes/second at the solved horizon.
func (n *Network) Throughput() (units.Bandwidth, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return 0, err
		}
	}
	if n.solvedT == 0 {
		return units.Bandwidth(math.Inf(1)), nil
	}
	return units.Bandwidth(n.demand.TotalDemand() / n.solvedT), nil
}

// PerGPUInletBW returns each GPU's average inlet bandwidth at the solved
// horizon (§4.3 reports 15.61 GB/s for Moment vs 10.92 GB/s for layout (c)).
func (n *Network) PerGPUInletBW() ([]units.Bandwidth, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	out := make([]units.Bandwidth, len(n.demandEdge))
	for i, e := range n.demandEdge {
		if n.solvedT > 0 {
			out[i] = units.Bandwidth(n.G.Flow(e) / n.solvedT)
		}
	}
	return out, nil
}

// QPIBytes returns the total bytes crossing the socket interconnect in the
// solved flow (Fig 17's contention metric).
func (n *Network) QPIBytes() (float64, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, e := range n.qpiEdges {
		total += n.G.Flow(e)
	}
	return total, nil
}

// BinTraffic reports the bytes served by each storage bin in the solved
// flow: per-GPU HBM peer service, per-socket DRAM, per-SSD. These are the
// Bin_traffic inputs of the DDAK priority formula (§3.3 Eq. 2).
type BinTraffic struct {
	HBMPeer []float64
	DRAM    map[string]float64
	SSD     []float64
}

// Traffic extracts per-bin served bytes from the solved flow.
func (n *Network) Traffic() (*BinTraffic, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	bt := &BinTraffic{
		HBMPeer: make([]float64, len(n.supplyHBM)),
		DRAM:    map[string]float64{},
		SSD:     make([]float64, len(n.supplySSD)),
	}
	for i, e := range n.supplyHBM {
		if e >= 0 {
			bt.HBMPeer[i] = n.G.Flow(e)
		}
	}
	for rc, e := range n.supplyDRAM {
		bt.DRAM[rc] = n.G.Flow(e)
	}
	for i, e := range n.supplySSD {
		bt.SSD[i] = n.G.Flow(e)
	}
	return bt, nil
}

// LinkUtilization returns, per named physical link, the fraction of its
// byte-capacity (rate × horizon, summed over directions) used by the solved
// flow. Values near 1.0 identify the bottlenecks the paper narrates (Bus 9,
// Bus 16, QPI).
func (n *Network) LinkUtilization() (map[string]float64, error) {
	if n.solvedT == 0 {
		if _, err := n.Solve(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(n.linkEdges))
	for name, edges := range n.linkEdges {
		used := 0.0
		for _, e := range edges {
			used += n.G.Flow(e)
		}
		capBytes := n.linkRate[name] * n.solvedT
		if math.IsInf(capBytes, 1) || capBytes == 0 {
			out[name] = 0
			continue
		}
		out[name] = used / capBytes
	}
	return out, nil
}
