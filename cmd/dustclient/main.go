// Command dustclient runs one DUST-Client backed by the simulated
// database-driven switch OS: it registers with the manager, reports STAT
// at the assigned Update-Interval, and executes offload/host/replica
// instructions by flipping its monitor agents between local and
// export-only modes.
//
// Usage:
//
//	dustclient -manager 127.0.0.1:7700 -node 0 -kpps 29.4
//
// With -managers (comma-separated, e.g. primary,standby), the reconnect
// loop rotates across the listed addresses, so the client fails over to a
// promoted standby when the primary dies.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/report"
	"repro/internal/switchos"
)

func main() {
	var (
		managerAddr = flag.String("manager", "127.0.0.1:7700", "manager address")
		managers    = flag.String("managers", "", "comma-separated manager addresses in failover order (overrides -manager)")
		node        = flag.Int("node", 0, "this client's node index in the manager's topology")
		kpps        = flag.Float64("kpps", 29.4, "transit traffic in thousands of packets/second")
		capable     = flag.Bool("capable", true, "participate in offloading")
		cmax        = flag.Float64("cmax", 0, "self-declared busy threshold (0 = manager default)")
		comax       = flag.Float64("comax", 0, "self-declared candidate threshold (0 = manager default)")
		seed        = flag.Int64("seed", 0, "switch simulation seed (0 = node index)")
		rcMin       = flag.Duration("reconnect-min", 500*time.Millisecond, "initial reconnect backoff bound")
		rcMax       = flag.Duration("reconnect-max", 30*time.Second, "reconnect backoff cap")
		rcAttempts  = flag.Int("max-reconnects", 0, "consecutive failed redials before giving up (0 = retry forever)")
		hsTimeout   = flag.Duration("handshake-timeout", 5*time.Second, "registration ACK wait before a redial retries")
		writeDL     = flag.Duration("write-deadline", 10*time.Second, "per-Send deadline on the manager connection (0 = none)")
		probePeers  = flag.String("probe-peers", "", "comma-separated node indices to actively probe (TWAMP-Light RTT/loss via the manager relay)")
		probeEvery  = flag.Duration("probe-interval", 0, "base per-peer probe cadence, jittered ±50% (0 = default when -probe-peers is set)")
		reportBand  = flag.Float64("report-deadband", 0, "utilization deadband in percentage points: suppress STATs while utilization stays within this band of the last report (also bands data ±10% relative and any agent-count change; 0 = report every interval)")
		reportProb  = flag.Float64("report-prob", 0, "additionally report each interval with this probability from the seeded RNG (0 = disabled, ≥1 = every interval)")
		reportQuiet = flag.Int("report-max-silence", 0, "suppressed intervals before a heartbeat STAT re-affirms liveness (0 = default, negative = never)")
	)
	flag.Parse()

	if *seed == 0 {
		*seed = int64(*node) + 1
	}
	cfg := switchos.Aruba8325()
	cfg.Name = "switch-" + strconv.Itoa(*node)
	sw, err := switchos.New(cfg, switchos.StandardAgents(), *seed)
	if err != nil {
		log.Fatalf("dustclient: %v", err)
	}
	sw.SetTrafficKpps(*kpps)

	// Advance the simulated switch once per wall second and expose its
	// latest snapshot to the STAT path.
	var mu sync.Mutex
	var snap switchos.Snapshot
	// hosted marks the origins whose agents this switch runs (guarded by mu).
	hosted := make(map[int]bool)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for range tick.C {
			s, err := sw.Step(1)
			if err != nil {
				log.Printf("dustclient: switch step: %v", err)
				return
			}
			mu.Lock()
			snap = s
			mu.Unlock()
		}
	}()

	// No read deadline: the manager only speaks during placement rounds, so
	// an idle-but-healthy connection must not be cut. Liveness comes from
	// the supervised reconnect loop instead.
	addrs := []string{*managerAddr}
	if *managers != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*managers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			log.Fatalf("dustclient: -managers has no addresses")
		}
	}
	dialers := make([]func() (proto.Conn, error), len(addrs))
	for i, addr := range addrs {
		addr := addr
		dialers[i] = func() (proto.Conn, error) {
			return proto.DialDeadlines(addr, proto.ConnDeadlines{Write: *writeDL})
		}
	}
	// First contact also walks the failover list: a client started while the
	// primary is already down registers with the standby.
	var conn proto.Conn
	for i, d := range dialers {
		if conn, err = d(); err == nil {
			if i > 0 {
				log.Printf("dustclient: primary unreachable, connected to %s", addrs[i])
			}
			break
		}
		log.Printf("dustclient: dial %s: %v", addrs[i], err)
	}
	if err != nil {
		log.Fatalf("dustclient: no manager reachable: %v", err)
	}
	defer conn.Close()

	var peers []int
	if *probePeers != "" {
		for _, p := range strings.Split(*probePeers, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			n, err := strconv.Atoi(p)
			if err != nil {
				log.Fatalf("dustclient: -probe-peers: %v", err)
			}
			peers = append(peers, n)
		}
	}

	// -report-deadband bands all three STAT fields so no field's drift can
	// hide behind another's silence: utilization by the flagged absolute
	// band, data volume by ±10% relative drift, and agent count by any
	// integer change.
	policy := report.Policy{Prob: *reportProb, MaxSilence: *reportQuiet, Seed: *seed}
	if *reportBand > 0 {
		policy.Util = report.Deadband{Abs: *reportBand}
		policy.Data = report.Deadband{Rel: 0.10}
		policy.Agents = report.Deadband{Abs: 0.5}
	}

	client, err := cluster.NewClient(cluster.ClientConfig{
		Node:          *node,
		Capable:       *capable,
		CMax:          *cmax,
		COMax:         *comax,
		Seed:          *seed,
		Report:        policy,
		ProbePeers:    peers,
		ProbeInterval: *probeEvery,
		Resources: func() cluster.Resources {
			mu.Lock()
			defer mu.Unlock()
			return cluster.Resources{
				UtilPct:   snap.DeviceCPUPct,
				DataMb:    50, // exported monitoring data volume per interval
				NumAgents: len(switchos.StandardAgents()),
			}
		},
		OnHost: func(busy int, amount float64, route []int32) bool {
			log.Printf("hosting %.1f%% of node %d's monitoring (route %v)", amount, busy, route)
			// The amount is the pair's absolute total: a request for an
			// origin already hosted is a resize, and its agents stay.
			mu.Lock()
			defer mu.Unlock()
			if hosted[busy] {
				return true
			}
			for _, spec := range switchos.StandardAgents() {
				if err := sw.HostRemote(spec, "node-"+strconv.Itoa(busy), func() float64 { return *kpps }); err != nil {
					log.Printf("host: %v", err)
					return false
				}
			}
			hosted[busy] = true
			return true
		},
		OnRelease: func(busy int) {
			log.Printf("releasing node %d's hosted monitoring", busy)
			mu.Lock()
			delete(hosted, busy)
			mu.Unlock()
			for _, spec := range switchos.StandardAgents() {
				_ = sw.EvictRemote("node-"+strconv.Itoa(busy), spec.Name)
			}
		},
		OnRedirect: func(amount float64, route []int32) {
			log.Printf("redirecting %.1f%% of local monitoring along %v", amount, route)
			sw.OffloadAll(switchos.ModeOffloaded)
		},
		OnReplica: func(busy, failed int, amount float64) {
			log.Printf("substituting failed destination %d for busy %d (%.1f%%)", failed, busy, amount)
		},
		Dialers:              dialers,
		ReconnectMin:         *rcMin,
		ReconnectMax:         *rcMax,
		MaxReconnectAttempts: *rcAttempts,
		HandshakeTimeout:     *hsTimeout,
		OnAbandon: func(attempts int, lastErr error) {
			log.Printf("dustclient: giving up after %d reconnect attempts across %d manager(s): %v",
				attempts, len(addrs), lastErr)
		},
		Logf: log.Printf,
	}, conn)
	if err != nil {
		log.Fatalf("dustclient: %v", err)
	}
	if err := client.Handshake(); err != nil {
		log.Fatalf("dustclient: handshake: %v", err)
	}
	log.Printf("dustclient: node %d registered, update interval %.0fs", *node, client.UpdateInterval())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := client.Run(ctx); err != nil && ctx.Err() == nil {
		log.Fatalf("dustclient: %v", err)
	}
}
