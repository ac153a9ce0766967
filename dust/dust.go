// Package dust is the public API of the DUST reproduction: resource-aware
// telemetry offloading with a distributed, hardware-agnostic approach
// (Sharifian et al., IPPS 2024).
//
// DUST relieves network nodes whose in-device monitoring workload pushes
// them past a utilization threshold by relocating monitor agents to
// under-utilized nodes, choosing destinations and controllable routes that
// minimize total response time. The package re-exports the placement
// engine (ILP/LP formulation of Eq. 3 and the one-hop heuristic of
// Algorithm 1), the topology substrate, and the Manager/Client control
// plane.
//
// Quick start:
//
//	g := dust.FatTree(4, 1000)                  // 20-switch data-center pod
//	state := dust.NewState(g)
//	// ... fill state.Util (percent) and state.DataMb per node ...
//	res, err := dust.Solve(state, dust.DefaultParams())
//	for _, a := range res.Assignments {
//	    fmt.Printf("offload %.1f%% from %d to %d (%.2fs)\n",
//	        a.Amount, a.Busy, a.Candidate, a.ResponseTimeSec)
//	}
//
// See examples/ for runnable scenarios and cmd/dustbench for the
// paper-evaluation harness.
package dust

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
)

// Topology types and constructors.
type (
	// Graph is an undirected multigraph with per-link capacity and
	// dynamic utilization.
	Graph = graph.Graph
	// Edge is one undirected link.
	Edge = graph.Edge
	// EdgeID identifies an edge within a Graph.
	EdgeID = graph.EdgeID
	// Path is an edge sequence between two nodes.
	Path = graph.Path
	// NodeInfo carries node naming and fat-tree layer/pod metadata.
	NodeInfo = graph.NodeInfo
)

// NewGraph returns an empty graph with n isolated nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// FatTree builds the switch-only k-port fat-tree of the paper's
// evaluation (5k²/4 switches, k³/2 links).
func FatTree(k int, capMbps float64) *Graph { return graph.FatTree(k, capMbps) }

// FatTreeSizes reports the node/edge counts of FatTree(k, ·).
func FatTreeSizes(k int) (nodes, edges int) { return graph.FatTreeSizes(k) }

// RandomConnected builds a connected random graph for synthetic studies.
func RandomConnected(n int, p, capMbps float64, rng *rand.Rand) *Graph {
	return graph.RandomConnected(n, p, capMbps, rng)
}

// Placement-engine types (the paper's core contribution).
type (
	// Thresholds are the CMax/COMax/XMin capacity thresholds of
	// Section IV-B.
	Thresholds = core.Thresholds
	// State is the NMDB snapshot the optimizer consumes.
	State = core.State
	// Params configures a placement solve (max-hop, rate model, path
	// strategy, solver engine).
	Params = core.Params
	// Result is an optimization outcome with assignments and timings.
	Result = core.Result
	// Assignment is one x_ij > 0: offload Amount points from Busy to
	// Candidate along Route.
	Assignment = core.Assignment
	// Classification is the Busy/Offload-candidate role split.
	Classification = core.Classification
	// Role is a DUST-Client role.
	Role = core.Role
	// HeuristicResult is Algorithm 1's outcome, including the HFR.
	HeuristicResult = core.HeuristicResult
	// RouteTable holds minimum response times over controllable routes.
	RouteTable = core.RouteTable
	// ScenarioConfig drives random state generation.
	ScenarioConfig = core.ScenarioConfig
	// ZonedResult is the outcome of zone-partitioned solving.
	ZonedResult = core.ZonedResult
	// Persona describes per-node hardware heterogeneity: a capability
	// coefficient relating platform capacities and the in-situ
	// compression of SmartNIC/DPU-class devices.
	Persona = core.Persona
	// DeviceClass is a node's hardware persona class.
	DeviceClass = core.DeviceClass
)

// Device classes for Persona.
const (
	ClassSwitch   = core.ClassSwitch
	ClassServer   = core.ClassServer
	ClassDPU      = core.ClassDPU
	ClassSmartNIC = core.ClassSmartNIC
)

// DefaultPersona returns a device class's standard capability/compression
// profile.
func DefaultPersona(c DeviceClass) Persona { return core.DefaultPersona(c) }

// Role values.
const (
	RoleNone      = core.RoleNone
	RoleBusy      = core.RoleBusy
	RoleCandidate = core.RoleCandidate
	RoleNeutral   = core.RoleNeutral
)

// Solver engines.
const (
	SolverTransport = core.SolverTransport
	SolverSimplex   = core.SolverSimplex
	SolverILP       = core.SolverILP
)

// Path strategies and rate models.
const (
	PathEnumerate = core.PathEnumerate
	PathDP        = core.PathDP
	RateUtilized  = core.RateUtilized
	RateAvailable = core.RateAvailable
)

// Solve statuses.
const (
	StatusOptimal    = core.StatusOptimal
	StatusInfeasible = core.StatusInfeasible
)

// Heuristic modes.
const (
	HeuristicGreedy = core.HeuristicGreedy
	HeuristicLP     = core.HeuristicLP
)

// RecommendedKIO is the paper's suggested minimum Δ_io (Section V-B).
const RecommendedKIO = core.RecommendedKIO

// NewState creates an all-idle, all-offload-capable state over g.
func NewState(g *Graph) *State { return core.NewState(g) }

// DefaultParams returns the paper-faithful solver configuration
// (Δ_io = 2 thresholds, unbounded hops, exhaustive route enumeration,
// transportation solver).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultScenario mirrors the paper's random-scenario setup.
func DefaultScenario() ScenarioConfig { return core.DefaultScenario() }

// RandomState draws a random NMDB snapshot over g.
func RandomState(g *Graph, cfg ScenarioConfig, rng *rand.Rand) (*State, error) {
	return core.RandomState(g, cfg, rng)
}

// Classify splits nodes into Busy/Offload-candidate/neutral roles.
func Classify(s *State, t Thresholds) (*Classification, error) { return core.Classify(s, t) }

// Solve runs the full placement pipeline: classify, compute controllable
// routes, and solve the min-cost offload problem (Eq. 3).
func Solve(s *State, p Params) (*Result, error) { return core.Solve(s, p) }

// SolveHeuristic runs Algorithm 1's one-hop heuristic.
func SolveHeuristic(s *State, p Params, mode core.HeuristicMode) (*HeuristicResult, error) {
	return core.SolveHeuristic(s, p, mode)
}

// SolveZoned partitions the network into zones of at most zoneSize nodes
// and solves each independently (Section V-B's scaling recommendation).
func SolveZoned(s *State, p Params, zoneSize int) (*ZonedResult, error) {
	return core.SolveZoned(s, p, zoneSize)
}

// PartitionZonesByPod groups a fat-tree by pod, spreading core switches
// across the pod zones; non-fat-tree graphs fall back to BFS zones.
func PartitionZonesByPod(s *State) ([][]int, error) { return core.PartitionZonesByPod(s) }

// SolveZonedWithPartition is SolveZoned over a caller-supplied partition.
func SolveZonedWithPartition(s *State, p Params, zones [][]int) (*ZonedResult, error) {
	return core.SolveZonedWithPartition(s, p, zones)
}

// Apply executes a plan against the state (homogeneity assumption);
// Reclaim reverses it.
func Apply(s *State, t Thresholds, assignments []Assignment) error {
	return core.Apply(s, t, assignments)
}

// Reclaim returns previously offloaded load to its origins.
func Reclaim(s *State, assignments []Assignment) error { return core.Reclaim(s, assignments) }

// VerifyResult checks a result's feasibility invariants against its input.
func VerifyResult(s *State, t Thresholds, res *Result) error { return core.VerifyResult(s, t, res) }

// RankedRoute is one controllable-route alternative; BottleneckEntry one
// capacity bottleneck from the shadow-price analysis.
type (
	RankedRoute     = core.RankedRoute
	BottleneckEntry = core.BottleneckEntry
)

// AlternateRoutes returns up to k ranked controllable routes for an
// assignment — the minimum-response-time route first, then loopless
// backups (Yen's k-shortest paths).
func AlternateRoutes(s *State, a Assignment, model core.RateModel, k int) []RankedRoute {
	return core.AlternateRoutes(s, a, model, k)
}

// Planner caches per-source route computations across placement rounds
// (invalidated automatically when the topology's link rates change, and
// repaired in place). Rounds on one planner are serialised. A Result's
// Seconds and Assignments outlive the next round; Result.Routes.Route is
// valid only until the next round on the same planner.
type Planner = core.Planner

// NewPlanner creates a route-caching solver front-end with fixed params.
func NewPlanner(params Params) *Planner { return core.NewPlanner(params) }

// Control-plane types (DUST-Manager / DUST-Client, Figure 3).
type (
	// Manager is the DUST decision node (NMDB + optimization engine).
	Manager = cluster.Manager
	// ManagerConfig configures a Manager.
	ManagerConfig = cluster.ManagerConfig
	// Client is the per-device DUST agent.
	Client = cluster.Client
	// ClientConfig configures a Client.
	ClientConfig = cluster.ClientConfig
	// Resources is a client's STAT payload.
	Resources = cluster.Resources
	// PlacementReport is the outcome of one manager placement round.
	PlacementReport = cluster.PlacementReport
	// Substitution records a replica replacement after a destination
	// failure.
	Substitution = cluster.Substitution
)

// NewManager creates a DUST-Manager.
func NewManager(cfg ManagerConfig) (*Manager, error) { return cluster.NewManager(cfg) }

// NewClient creates a DUST-Client over a connection.
func NewClient(cfg ClientConfig, conn Conn) (*Client, error) { return cluster.NewClient(cfg, conn) }
