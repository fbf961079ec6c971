package main

// Request generation. --seed seeds the sub-seed of every daemon life of
// a cycle (NewRun); every input of a life derives from its sub-seed
// through one math/rand stream, drawn in a fixed order: the design-session
// structure pool first (it also supplies the boot warmup and the
// previous life), then the previous life's extra history, then client
// 0's sequence, then client 1's. The daemon sees only the encoded
// bodies.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"edram/internal/core"
	"edram/internal/edram"
	"edram/internal/service"
	"edram/internal/tech"
)

// Workload names.
const (
	coldExplore   = "cold-explore"
	designSession = "design-session"
	controllerSim = "controller-sim"
)

var workloads = []string{coldExplore, designSession, controllerSim}

// numClients is the closed loop's client count, one per core of the
// 2-core reference machine.
const numClients = 2

// Per-life sequence sizes. A life replays every client's sequence
// once; design-session's is capped by the daemon's caches (see
// TestDesignLifeFitsCaches).
const (
	coldPerClient     = 300
	simPerClient      = 150
	sessionsPerClient = 12
	tweaksPerSession  = 8
	structsPerClient  = 4
	prevLifeExplores  = 12
	prevLifeSims      = 6
)

// Request is one HTTP call of a client's sequence.
type Request struct {
	Path string
	Body []byte
}

// Plan is everything the seed of one daemon life fixes.
type Plan struct {
	Seed int64
	// PrevLife is what the untimed previous daemon life served; its
	// disk-tier segment is what every timed boot replays.
	PrevLife []Request
	// Warmup is the boot warmup list (edramd -warmup CAP:BW:HIT).
	Warmup []core.Requirements
	// Clients holds each client's request sequence for one life.
	Clients [numClients][]Request
}

// structure is one requirement structure of the design-session pool:
// the fields of Requirements.StructuralKey.
type structure struct {
	capMbit int
	hit     float64
	defects float64
	procs   []tech.Process
}

// Constraint grids of design-session tweaks. The power cap is per GB/s
// of required bandwidth and the area cap per Mbit of capacity, so every
// grid point keeps a feasible design (TestSessionsFeasible).
var (
	bwGrid    = []float64{0.5, 1, 1.5, 2, 3}
	areaGrid  = []float64{0, 1.5, 2.5}
	powerGrid = []float64{0, 400, 600}
	clockGrid = []float64{0, 100, 143}
)

// gridPoint indexes the four constraint grids.
type gridPoint [4]int

// opening is the constraint point every session starts from: 1 GB/s,
// no caps — the shape of an edramd -warmup entry.
var opening = gridPoint{1, 0, 0, 0}

func (s structure) requirements(g gridPoint) core.Requirements {
	bw := bwGrid[g[0]]
	r := core.Requirements{
		CapacityMbit:  s.capMbit,
		BandwidthGBps: bw,
		HitRate:       s.hit,
		DefectsPerCm2: s.defects,
		Processes:     s.procs,
	}
	if f := areaGrid[g[1]]; f > 0 {
		r.MaxAreaMm2 = f*float64(s.capMbit) + 4
	}
	if f := powerGrid[g[2]]; f > 0 {
		r.MaxPowerMW = f * bw
	}
	r.MinClockMHz = clockGrid[g[3]]
	return r
}

// generator draws every input of a plan from one seeded stream and
// keeps the structural keys already used, so cold explores never share
// a structure with anything else the daemon saw.
type generator struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// deck deals its values in shuffled passes: every pass holds each value
// exactly once. Drawing the cost-shaping fields of a request from decks
// fixes the make-up of every sequence (how many requests sweep two
// processes, carry a defect density, ...) whatever the seed, so the
// seed moves which inputs a run sees but not how much work they are.
type deck[T any] struct {
	rng    *rand.Rand
	values []T
	order  []int
}

func newDeck[T any](rng *rand.Rand, values ...T) *deck[T] {
	return &deck[T]{rng: rng, values: values}
}

func (d *deck[T]) next() T {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.values))
	}
	v := d.values[d.order[0]]
	d.order = d.order[1:]
	return v
}

// procList returns the default process (nil, for n = 0) or n of the
// three §3 base processes in a seeded order; order is part of the
// sweep identity.
func (g *generator) procList(n int) []tech.Process {
	all := tech.Processes()
	var out []tech.Process
	for _, i := range g.rng.Perm(len(all))[:n] {
		out = append(out, all[i])
	}
	return out
}

// designPool draws each client's structures. Structure 0 is warmed at
// boot, structures 1 and 2 were opened by the previous life, structure
// 3 is new to the daemon; structures 1 and 3 sweep two processes, and
// the four take the capacities 8, 16, 32 and 64 Mbit in a seeded order.
func (g *generator) designPool() [numClients][]structure {
	var pool [numClients][]structure
	for c := range pool {
		caps := newDeck(g.rng, 8, 16, 32, 64)
		defects := newDeck(g.rng, 0, 0.5, 1)
		for i := 0; i < structsPerClient; i++ {
			s := structure{capMbit: caps.next(), procs: g.procList(2 * (i % 2))}
			if i > 0 { // warmup entries carry only CAP:BW:HIT
				s.defects = defects.next()
			}
			for {
				s.hit = float64(40+5*g.rng.Intn(11)) / 100
				key := s.requirements(opening).StructuralKey()
				if !g.seen[key] {
					g.seen[key] = true
					break
				}
			}
			pool[c] = append(pool[c], s)
		}
	}
	return pool
}

// coldStream draws structurally new explore requests. Capacity, hit
// rate and defect density vary, and some requests list 2 or 3 base
// processes, which doubles or triples the sweep; every 20 requests hold
// 5 two-process and 3 three-process sweeps, 14 with a defect density,
// 6 area caps, 6 power caps and 4 clock floors.
type coldStream struct {
	g                         *generator
	caps, procs               *deck[int]
	defects, area, power, clk *deck[bool]
}

func (g *generator) newColdStream() *coldStream {
	flags := func(on, of int) *deck[bool] {
		v := make([]bool, of)
		for i := 0; i < on; i++ {
			v[i] = true
		}
		return newDeck(g.rng, v...)
	}
	return &coldStream{
		g:       g,
		caps:    newDeck(g.rng, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128),
		procs:   newDeck(g.rng, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 3, 3, 3),
		defects: flags(7, 10),
		area:    flags(3, 10),
		power:   flags(3, 10),
		clk:     flags(2, 10),
	}
}

func (cs *coldStream) next() core.Requirements {
	rng := cs.g.rng
	r := core.Requirements{
		CapacityMbit:  cs.caps.next(),
		BandwidthGBps: float64(5+rng.Intn(40)) / 10,
		Processes:     cs.g.procList(cs.procs.next()),
	}
	if cs.defects.next() {
		r.DefectsPerCm2 = float64(1+rng.Intn(40)) / 20
	}
	if cs.area.next() {
		r.MaxAreaMm2 = float64(r.CapacityMbit)*float64(10+rng.Intn(20))/10 + 4
	}
	if cs.power.next() {
		r.MaxPowerMW = r.BandwidthGBps * float64(200+rng.Intn(400))
	}
	if cs.clk.next() {
		r.MinClockMHz = float64(80 + 10*rng.Intn(8))
	}
	for {
		r.HitRate = float64(300+rng.Intn(601)) / 1000
		if key := r.StructuralKey(); !cs.g.seen[key] {
			cs.g.seen[key] = true
			return r
		}
	}
}

// simSpecs is the handful of macros the controller-sim mixes run on.
var simSpecs = []edram.Spec{
	{CapacityMbit: 4, InterfaceBits: 16, Banks: 4},
	{CapacityMbit: 8, InterfaceBits: 32, Banks: 2},
	{CapacityMbit: 16, InterfaceBits: 64, Banks: 4},
	{CapacityMbit: 32, InterfaceBits: 128, Banks: 8},
	{CapacityMbit: 64, InterfaceBits: 256, Banks: 8},
}

var simPolicies = []string{"round-robin", "fixed-priority", "oldest-first", "open-page-first", "deadline"}

// simRequest draws one controller simulation: a spec, controller
// options and 2 to 4 clients mixing sequential, strided, random and
// alternating streams, reads beside writes.
func (g *generator) simRequest() service.SimulateRequest {
	spec := simSpecs[g.rng.Intn(len(simSpecs))]
	capB := int64(spec.CapacityMbit) << 17 // bytes
	req := service.SimulateRequest{
		Spec: spec,
		Options: service.SimulateOptions{
			Policy:        simPolicies[g.rng.Intn(len(simPolicies))],
			ClosedPage:    g.rng.Intn(4) == 0,
			ReorderWindow: []int{0, 2, 4, 8}[g.rng.Intn(4)],
		},
	}
	kinds := []string{"sequential", "strided", "random", "alternating"}
	n := 2 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		c := service.ClientSpec{
			Name:     fmt.Sprintf("c%d", i),
			Kind:     kinds[g.rng.Intn(len(kinds))],
			RateGBps: float64(5+g.rng.Intn(46)) / 100,
			Count:    300 + g.rng.Intn(1200),
			StartB:   int64(g.rng.Intn(int(capB/2))) &^ 63,
			StrideB:  int64(64) << g.rng.Intn(7),
			LimitB:   capB,
		}
		if g.rng.Intn(4) == 0 {
			c.Bits = 2 * spec.InterfaceBits
		}
		switch c.Kind {
		case "random":
			c.WindowB = int64(64<<10) << g.rng.Intn(4)
			c.Seed = 1 + g.rng.Int63n(1<<30)
		case "alternating":
			c.LimitB = 0
		}
		if c.Kind != "alternating" && g.rng.Intn(10) < 3 {
			c.Write = true
		}
		if req.Options.Policy == "deadline" {
			c.LatencyBudgetNs = float64(200 + 100*g.rng.Intn(20))
		}
		req.Clients = append(req.Clients, c)
	}
	return req
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

func exploreReq(r core.Requirements) Request {
	return Request{Path: "/v1/explore", Body: mustJSON(r)}
}

// livesPerCycle is how many daemon lives, each with its own inputs, one
// cycle of a run holds. Averaging over several lives keeps a run's
// figures close whatever the seed.
var livesPerCycle = map[string]int{coldExplore: 2, designSession: 8, controllerSim: 4}

// NewRun derives the plan of every life of a cycle from the run's seed.
func NewRun(workload string, seed int64) ([]*Plan, error) {
	n, ok := livesPerCycle[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	rng := rand.New(rand.NewSource(seed))
	lives := make([]*Plan, n)
	for i := range lives {
		p, err := NewPlan(workload, rng.Int63())
		if err != nil {
			return nil, err
		}
		lives[i] = p
	}
	return lives, nil
}

// NewPlan derives every input of one daemon life from its workload and
// seed.
func NewPlan(workload string, seed int64) (*Plan, error) {
	g := newGenerator(seed)
	p := &Plan{Seed: seed}
	pool := g.designPool()
	for c := range pool {
		s := pool[c][0]
		p.Warmup = append(p.Warmup, core.Requirements{CapacityMbit: s.capMbit, BandwidthGBps: bwGrid[opening[0]], HitRate: s.hit})
		p.PrevLife = append(p.PrevLife, exploreReq(pool[c][1].requirements(opening)), exploreReq(pool[c][2].requirements(opening)))
	}
	history := g.newColdStream()
	for i := 0; i < prevLifeExplores; i++ {
		p.PrevLife = append(p.PrevLife, exploreReq(history.next()))
	}
	for i := 0; i < prevLifeSims; i++ {
		p.PrevLife = append(p.PrevLife, Request{Path: "/v1/simulate", Body: mustJSON(g.simRequest())})
	}
	for c := 0; c < numClients; c++ {
		switch workload {
		case coldExplore:
			cs := g.newColdStream()
			for i := 0; i < coldPerClient; i++ {
				p.Clients[c] = append(p.Clients[c], exploreReq(cs.next()))
			}
		case designSession:
			p.Clients[c] = g.sessions(pool[c])
		case controllerSim:
			seen := map[string]bool{}
			for len(p.Clients[c]) < simPerClient {
				b := mustJSON(g.simRequest())
				if !seen[string(b)] {
					seen[string(b)] = true
					p.Clients[c] = append(p.Clients[c], Request{Path: "/v1/simulate", Body: b})
				}
			}
		default:
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
		}
	}
	return p, nil
}

// sessions draws one client's interactive sessions: each fixes one
// structure of the client's pool, opens with an explore at the opening
// constraints, walks the constraint grids one step per tweak (so some
// points repeat exactly) and closes with /v1/recommend at the last
// point. Every structure opens at least twice.
func (g *generator) sessions(pool []structure) []Request {
	var order []int
	for len(order) < sessionsPerClient {
		order = append(order, g.rng.Perm(len(pool))...)
	}
	var out []Request
	for _, si := range order[:sessionsPerClient] {
		s := pool[si]
		pt := opening
		out = append(out, exploreReq(s.requirements(pt)))
		for t := 0; t < tweaksPerSession; t++ {
			dim := g.rng.Intn(len(pt))
			size := []int{len(bwGrid), len(areaGrid), len(powerGrid), len(clockGrid)}[dim]
			pt[dim] = (pt[dim] + 1 + g.rng.Intn(size-1)) % size
			out = append(out, exploreReq(s.requirements(pt)))
		}
		out = append(out, Request{Path: "/v1/recommend", Body: mustJSON(s.requirements(pt))})
	}
	return out
}
