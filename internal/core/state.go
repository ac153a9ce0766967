// Package core implements the paper's primary contribution: the DUST
// network-monitoring placement engine. It classifies nodes into Busy and
// Offload-candidate roles from their utilized capacity (Section IV-B),
// computes minimum response times over controllable routes (Eqs. 1–2),
// solves the min-cost offload problem exactly as an LP/ILP (Eq. 3) or
// approximately with the one-hop heuristic of Algorithm 1, and reports the
// Heuristic Failure Rate (Eq. 4) and the Δ_io feasibility parameter
// (Eq. 5).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Thresholds are the user-defined capacity thresholds of Section IV-B.
// All values are percentages in [0, 100].
type Thresholds struct {
	// CMax is the Busy-node threshold: a node with utilized capacity at or
	// above CMax must offload its excess monitoring workload.
	CMax float64
	// COMax is the Offload-candidate threshold: a node with utilized
	// capacity at or below COMax may host offloaded workloads up to COMax.
	COMax float64
	// XMin is the minimum node usage capacity (constraint 3e): the floor
	// of the utilized-capacity range across the network.
	XMin float64
}

// Validate checks the ordering XMin <= COMax < CMax <= 100 required for
// the Busy and Offload-candidate sets to be disjoint.
func (t Thresholds) Validate() error {
	if t.XMin < 0 || t.CMax > 100 {
		return fmt.Errorf("core: thresholds outside [0,100]: %+v", t)
	}
	if !(t.XMin <= t.COMax && t.COMax < t.CMax) {
		return fmt.Errorf("core: thresholds must satisfy XMin <= COMax < CMax, got %+v", t)
	}
	return nil
}

// DeltaIO computes the paper's Δ_io feasibility parameter (Eq. 5):
// (COmax − x_min) / (100 − Cmax), the ratio of aggregate candidate
// headroom range to busy overflow range. The paper recommends choosing
// thresholds with Δ_io >= 2 (K_io) to keep the infeasible-optimization
// rate near zero. Returns +Inf when CMax = 100.
func (t Thresholds) DeltaIO() float64 {
	den := 100 - t.CMax
	if den == 0 {
		return math.Inf(1)
	}
	return (t.COMax - t.XMin) / den
}

// RecommendedKIO is the paper's suggested minimum Δ_io (Section V-B).
const RecommendedKIO = 2.0

// State is a snapshot of the network as stored in the DUST-Manager's NMDB:
// the topology with per-link utilization, each node's utilized capacity
// C_j (percent), each node's monitoring data volume D_i (Mb), and whether
// the node participates in offloading (the Offload-capable handshake).
type State struct {
	G *graph.Graph
	// Util[j] is C_j, the node's utilized capacity in percent.
	Util []float64
	// DataMb[i] is D_i, the volume of in-device monitoring data the node
	// would transfer if offloaded, in megabits.
	DataMb []float64
	// Offloadable[i] reports whether the node sent Offload-capable=1.
	Offloadable []bool
	// Personas optionally describes per-node hardware heterogeneity
	// (capability coefficients, in-situ compression). nil means the
	// paper's homogeneity assumption. Attach with SetPersonas.
	Personas []Persona
}

// NewState creates a state over g with all capacities zero, data volumes
// zero, and every node offload-capable.
func NewState(g *graph.Graph) *State {
	n := g.NumNodes()
	s := &State{
		G:           g,
		Util:        make([]float64, n),
		DataMb:      make([]float64, n),
		Offloadable: make([]bool, n),
	}
	for i := range s.Offloadable {
		s.Offloadable[i] = true
	}
	return s
}

// Validate checks structural consistency and value ranges: the node
// arrays (ValidateNodes) and the graph.
func (s *State) Validate() error {
	if err := s.ValidateNodes(); err != nil {
		return err
	}
	return s.G.Validate()
}

// ValidateNodes checks the per-node arrays against the graph's node count
// and their value ranges, leaving the graph itself unchecked.
func (s *State) ValidateNodes() error {
	n := s.G.NumNodes()
	if len(s.Util) != n || len(s.DataMb) != n || len(s.Offloadable) != n {
		return fmt.Errorf("core: state arrays sized %d/%d/%d, want %d",
			len(s.Util), len(s.DataMb), len(s.Offloadable), n)
	}
	for i, u := range s.Util {
		if u < 0 || u > 100 {
			return fmt.Errorf("core: node %d utilization %g outside [0,100]", i, u)
		}
		if s.DataMb[i] < 0 {
			return fmt.Errorf("core: node %d data volume %g negative", i, s.DataMb[i])
		}
	}
	if s.Personas != nil {
		if len(s.Personas) != n {
			return fmt.Errorf("core: %d personas for %d nodes", len(s.Personas), n)
		}
		for i, p := range s.Personas {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("core: node %d: %w", i, err)
			}
		}
	}
	return nil
}

// Clone returns a deep copy sharing no state (including the graph).
func (s *State) Clone() *State {
	c := &State{
		G:           s.G.Clone(),
		Util:        append([]float64(nil), s.Util...),
		DataMb:      append([]float64(nil), s.DataMb...),
		Offloadable: append([]bool(nil), s.Offloadable...),
	}
	if s.Personas != nil {
		c.Personas = append([]Persona(nil), s.Personas...)
	}
	return c
}

// Role is a DUST-Client role as assigned by the Manager (Section III-B).
type Role uint8

// Client roles.
const (
	// RoleNone marks a node that declined offloading (Offload-capable=0).
	RoleNone Role = iota
	// RoleBusy marks a node whose C_j >= CMax.
	RoleBusy
	// RoleCandidate marks a node whose C_j <= COMax.
	RoleCandidate
	// RoleNeutral marks an offload-capable node between the thresholds:
	// neither busy nor able to host extra load (a relay).
	RoleNeutral
)

func (r Role) String() string {
	switch r {
	case RoleBusy:
		return "busy"
	case RoleCandidate:
		return "offload-candidate"
	case RoleNeutral:
		return "neutral"
	default:
		return "none-offloading"
	}
}

// Classification is the per-node role split for one state snapshot.
type Classification struct {
	Roles []Role
	// Busy and Candidates list node indices, ascending.
	Busy       []int
	Candidates []int
	// Cs[k] is the excess load of Busy[k] (Eq. 3c) and Cd[k] the spare
	// capacity of Candidates[k] (Eq. 3d), both in percentage points.
	Cs []float64
	Cd []float64
}

// TotalCs returns the total load to offload, Σ Cs_i.
func (c *Classification) TotalCs() float64 {
	sum := 0.0
	for _, v := range c.Cs {
		sum += v
	}
	return sum
}

// TotalCd returns the total spare capacity, Σ Cd_j.
func (c *Classification) TotalCd() float64 {
	sum := 0.0
	for _, v := range c.Cd {
		sum += v
	}
	return sum
}

// Classify splits nodes into roles per the thresholds: Busy when
// C >= CMax, Offload-candidate when C <= COMax, neutral otherwise;
// non-offload-capable nodes stay RoleNone regardless of capacity.
func Classify(s *State, t Thresholds) (*Classification, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.G.NumNodes()
	c := &Classification{Roles: make([]Role, n)}
	for i := 0; i < n; i++ {
		if !s.Offloadable[i] {
			c.Roles[i] = RoleNone
			continue
		}
		switch {
		case s.Util[i] >= t.CMax:
			c.Roles[i] = RoleBusy
			c.Busy = append(c.Busy, i)
			c.Cs = append(c.Cs, s.Util[i]-t.CMax)
		case s.Util[i] <= t.COMax:
			c.Roles[i] = RoleCandidate
			c.Candidates = append(c.Candidates, i)
			c.Cd = append(c.Cd, t.COMax-s.Util[i])
		default:
			c.Roles[i] = RoleNeutral
		}
	}
	return c, nil
}

// ScenarioConfig controls random state generation for the scalability and
// feasibility experiments (Section V-B).
type ScenarioConfig struct {
	Thresholds Thresholds
	// PBusy is the probability a node is drawn overloaded (C in
	// [CMax, 100]); PCandidate the probability it is drawn under-utilized
	// (C in [XMin, COMax]). The remainder land strictly between the
	// thresholds. PBusy+PCandidate must be <= 1.
	PBusy, PCandidate float64
	// DataMinMb/DataMaxMb bound each busy node's monitoring data volume.
	DataMinMb, DataMaxMb float64
	// UtilLo/UtilHi bound the per-link dynamic utilization.
	UtilLo, UtilHi float64
}

// DefaultScenario mirrors the paper's small-scale setup: Cmax=80,
// COmax=50, xmin=10 (Δ_io = 2, the recommended K_io), a quarter of nodes
// overloaded, half under-utilized, 10–100 Mb monitoring data, and link
// utilization between 10% and 90%.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		Thresholds: Thresholds{CMax: 80, COMax: 50, XMin: 10},
		PBusy:      0.25, PCandidate: 0.5,
		DataMinMb: 10, DataMaxMb: 100,
		UtilLo: 0.1, UtilHi: 0.9,
	}
}

// RandomState draws a random NMDB snapshot over g per cfg, using rng for
// reproducibility.
func RandomState(g *graph.Graph, cfg ScenarioConfig, rng *rand.Rand) (*State, error) {
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if cfg.PBusy < 0 || cfg.PCandidate < 0 || cfg.PBusy+cfg.PCandidate > 1 {
		return nil, fmt.Errorf("core: bad role probabilities pBusy=%g pCand=%g", cfg.PBusy, cfg.PCandidate)
	}
	if cfg.DataMaxMb < cfg.DataMinMb || cfg.DataMinMb < 0 {
		return nil, fmt.Errorf("core: bad data volume range [%g, %g]", cfg.DataMinMb, cfg.DataMaxMb)
	}
	s := NewState(g)
	t := cfg.Thresholds
	for i := 0; i < g.NumNodes(); i++ {
		r := rng.Float64()
		switch {
		case r < cfg.PBusy:
			s.Util[i] = t.CMax + (100-t.CMax)*rng.Float64()
		case r < cfg.PBusy+cfg.PCandidate:
			s.Util[i] = t.XMin + (t.COMax-t.XMin)*rng.Float64()
		default:
			// Strictly between the thresholds: neutral relay nodes.
			span := t.CMax - t.COMax
			s.Util[i] = t.COMax + span*(0.05+0.9*rng.Float64())
		}
		s.DataMb[i] = cfg.DataMinMb + (cfg.DataMaxMb-cfg.DataMinMb)*rng.Float64()
	}
	graph.RandomizeUtilization(g, cfg.UtilLo, cfg.UtilHi, rng)
	return s, nil
}
