package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// nmdbSnapshot is the wire form of the NMDB's durable state: a small
// envelope (version + CRC-32 of the body bytes) around the client records
// and the active offload ledger (the topology is configuration, not
// state, and is not serialized). The body rides as json.RawMessage so the
// checksum covers the exact bytes on the wire — a flipped bit anywhere in
// the body fails the load instead of silently restoring corrupt state.
type nmdbSnapshot struct {
	Version  int             `json:"version"`
	Checksum uint32          `json:"checksum"`
	Body     json.RawMessage `json:"body"`
}

type snapshotBody struct {
	Clients []clientSnapshot     `json:"clients"`
	Active  []assignmentSnapshot `json:"active"`
}

type clientSnapshot struct {
	Node          int       `json:"node"`
	Capable       bool      `json:"capable"`
	CMax          float64   `json:"cmax,omitempty"`
	COMax         float64   `json:"comax,omitempty"`
	UtilPct       float64   `json:"util_pct"`
	DataMb        float64   `json:"data_mb"`
	NumAgents     int       `json:"num_agents"`
	LastStat      time.Time `json:"last_stat"`
	LastKeepalive time.Time `json:"last_keepalive"`
	LastReport    time.Time `json:"last_report,omitempty"`
	StatSupp      uint64    `json:"stat_suppressed,omitempty"`
	StatGapLoss   uint64    `json:"stat_gap_loss,omitempty"`
	Role          uint8     `json:"role"`
	HostingFor    []int     `json:"hosting_for,omitempty"`
}

type assignmentSnapshot struct {
	Busy            int     `json:"busy"`
	Candidate       int     `json:"candidate"`
	Amount          float64 `json:"amount"`
	ResponseTimeSec float64 `json:"response_time_sec"`
	// RouteEdges is the route from Busy to Candidate. A restored pair
	// whose route is unchanged is kept, not re-offered. Checkpoints
	// written before routes were saved lack it and restore route-less.
	RouteEdges []graph.EdgeID `json:"route_edges,omitempty"`
}

// snapshotVersion 2 introduced the checksummed envelope (version 1 was a
// flat, integrity-free JSON object).
const snapshotVersion = 2

// ErrSnapshotCorrupt reports a snapshot whose body does not match its
// checksum (or cannot be parsed at all); callers distinguish it from
// plainly absent or version-skewed snapshots with errors.Is.
var ErrSnapshotCorrupt = errors.New("cluster: snapshot corrupt")

// SaveSnapshot serializes the NMDB's durable state, letting a restarted
// (or promoted standby) Manager resume with its client registry and
// offload ledger intact (clients re-register and STAT refreshes the
// dynamic fields). The body is wrapped in a checksummed envelope so
// LoadSnapshot detects torn or bit-flipped files.
func (db *NMDB) SaveSnapshot(w io.Writer) error {
	var body snapshotBody
	for _, sh := range db.shards {
		sh.mu.Lock()
		for li := range sh.recs {
			rec := &sh.recs[li]
			if !rec.registered {
				continue
			}
			body.Clients = append(body.Clients, clientSnapshot{
				Node: rec.Node, Capable: rec.Capable,
				CMax: rec.CMax, COMax: rec.COMax,
				UtilPct: rec.UtilPct, DataMb: rec.DataMb, NumAgents: rec.NumAgents,
				LastStat: rec.LastStat, LastKeepalive: rec.LastKeepalive,
				LastReport:  rec.LastReport,
				StatSupp:    rec.StatSuppressed,
				StatGapLoss: rec.StatGapLoss,
				Role:        uint8(rec.Role),
				HostingFor:  rec.hostList(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(body.Clients, func(i, j int) bool {
		return body.Clients[i].Node < body.Clients[j].Node
	})
	db.lmu.Lock()
	for _, busy := range sortedActiveKeys(db.active) {
		for _, a := range db.active[busy] {
			body.Active = append(body.Active, assignmentSnapshot{
				Busy: a.Busy, Candidate: a.Candidate,
				Amount: a.Amount, ResponseTimeSec: a.ResponseTimeSec,
				RouteEdges: a.Route.Edges,
			})
		}
	}
	db.lmu.Unlock()

	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("cluster: encode snapshot body: %w", err)
	}
	return json.NewEncoder(w).Encode(nmdbSnapshot{
		Version:  snapshotVersion,
		Checksum: crc32.ChecksumIEEE(raw),
		Body:     raw,
	})
}

// LoadSnapshot restores state saved by SaveSnapshot into this NMDB,
// replacing the current client registry and ledger. Any decode failure,
// version skew, checksum mismatch, or reference to a node outside the
// topology rejects the whole snapshot and leaves the current state
// untouched.
func (db *NMDB) LoadSnapshot(r io.Reader) error {
	var snap nmdbSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("%w: decode snapshot: %v", ErrSnapshotCorrupt, err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("cluster: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if sum := crc32.ChecksumIEEE(snap.Body); sum != snap.Checksum {
		return fmt.Errorf("%w: body checksum %08x, header says %08x",
			ErrSnapshotCorrupt, sum, snap.Checksum)
	}
	var body snapshotBody
	if err := json.Unmarshal(snap.Body, &body); err != nil {
		return fmt.Errorf("%w: decode snapshot body: %v", ErrSnapshotCorrupt, err)
	}
	n := db.numNodes
	// Fresh per-shard record arrays, filled from the snapshot and swapped
	// in whole under each shard's lock.
	fresh := make([][]ClientRecord, len(db.shards))
	for si, sh := range db.shards {
		fresh[si] = make([]ClientRecord, len(sh.recs))
	}
	for _, c := range body.Clients {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("cluster: snapshot client %d outside topology (%d nodes)", c.Node, n)
		}
		rec := &fresh[c.Node&db.mask][c.Node>>db.shift]
		*rec = ClientRecord{
			Node: c.Node, Capable: c.Capable,
			CMax: c.CMax, COMax: c.COMax,
			UtilPct: c.UtilPct, DataMb: c.DataMb, NumAgents: c.NumAgents,
			LastStat: c.LastStat, LastKeepalive: c.LastKeepalive,
			// Snapshots from before sampled reporting lack last_report;
			// fall back to the stat clock so restored records do not read
			// as past the horizon solely for being old-format.
			LastReport:     c.LastReport,
			StatSuppressed: c.StatSupp,
			StatGapLoss:    c.StatGapLoss,
			Role:           core.Role(c.Role),
			registered:     true,
		}
		if rec.LastReport.IsZero() {
			rec.LastReport = c.LastStat
		}
		for _, b := range c.HostingFor {
			rec.hostAdd(b)
		}
	}
	active := make(map[int][]core.Assignment, len(body.Active))
	for _, a := range body.Active {
		if a.Busy < 0 || a.Busy >= n || a.Candidate < 0 || a.Candidate >= n {
			return fmt.Errorf("cluster: snapshot assignment %d→%d outside topology", a.Busy, a.Candidate)
		}
		if a.Amount < 0 {
			return fmt.Errorf("cluster: snapshot assignment with negative amount %g", a.Amount)
		}
		route, err := db.restoreRoute(a)
		if err != nil {
			return err
		}
		active[a.Busy] = append(active[a.Busy], core.Assignment{
			Busy: a.Busy, Candidate: a.Candidate,
			Amount: a.Amount, ResponseTimeSec: a.ResponseTimeSec,
			Route: route,
		})
	}

	// Replace each shard's registry, bumping its seq so the next
	// SnapshotState rebuilds every row from the restored records.
	for si, sh := range db.shards {
		sh.mu.Lock()
		sh.recs = fresh[si]
		sh.seq++
		sh.mu.Unlock()
	}
	db.lmu.Lock()
	db.active = active
	db.lmu.Unlock()
	db.muts.Add(1)
	return nil
}

func sortedActiveKeys(m map[int][]core.Assignment) []int {
	out := make([]int, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// restoreRoute rebuilds a saved assignment's route. Its edges must exist
// in the topology and walk from the busy node to the candidate; anything
// else marks the snapshot corrupt. No saved edges restore an empty route.
func (db *NMDB) restoreRoute(a assignmentSnapshot) (graph.Path, error) {
	if len(a.RouteEdges) == 0 {
		return graph.Path{}, nil
	}
	cur := a.Busy
	for _, id := range a.RouteEdges {
		if id < 0 || int(id) >= db.topo.NumEdges() {
			return graph.Path{}, fmt.Errorf("%w: assignment %d→%d route edge %d outside topology (%d edges)",
				ErrSnapshotCorrupt, a.Busy, a.Candidate, id, db.topo.NumEdges())
		}
		e := db.topo.Edge(id)
		if cur != e.U && cur != e.V {
			cur = -1
			break
		}
		cur = e.Other(cur)
	}
	if cur != a.Candidate {
		return graph.Path{}, fmt.Errorf("%w: assignment %d→%d route %v is not a walk between them",
			ErrSnapshotCorrupt, a.Busy, a.Candidate, a.RouteEdges)
	}
	return graph.Path{Src: a.Busy, Dst: a.Candidate, Edges: a.RouteEdges}, nil
}
