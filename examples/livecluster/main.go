// Livecluster: a real DUST control plane over loopback TCP. A manager
// serves the Figure-4 topology; seven clients register with
// Offload-capable, report STAT, and the manager runs a placement round —
// the full message workflow of Figure 3 (Offload-capable → ACK → STAT →
// Offload-Request → Offload-ACK → redirect), plus a destination failure
// handled by Keepalive timeout and REP-based replica substitution.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/dust"
)

func main() {
	// Figure 4's topology, 50%-utilized 100 Mbps links.
	g := dust.NewGraph(7)
	for _, l := range [][2]int{{0, 2}, {2, 1}, {2, 3}, {3, 1}, {1, 4}, {4, 5}, {2, 6}} {
		id := g.AddEdge(l[0], l[1], 100)
		g.SetUtilization(id, 0.5)
	}

	clock := &virtualClock{now: time.Unix(0, 0)}
	mgr, err := dust.NewManager(dust.ManagerConfig{
		Topology:          g,
		Defaults:          dust.Thresholds{CMax: 80, COMax: 50, XMin: 10},
		UpdateIntervalSec: 60,
		KeepaliveTimeout:  90 * time.Second,
		AckTimeout:        3 * time.Second,
		Now:               clock.Now,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()

	l, err := dust.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go mgr.Serve(l)
	fmt.Printf("manager listening on %s\n", l.Addr())

	// Seven clients over real TCP. S1 (node 0) is busy; S2 (1) and S6 (5)
	// are candidates.
	utils := []float64{90, 20, 60, 60, 60, 30, 60}
	names := []string{"S1", "S2", "S3", "S4", "S5", "S6", "S7"}
	clients := make([]*dust.Client, 7)
	for i := 0; i < 7; i++ {
		i := i
		conn, err := dust.Dial(l.Addr())
		if err != nil {
			log.Fatal(err)
		}
		cl, err := dust.NewClient(dust.ClientConfig{
			Node: i, Capable: true,
			Resources: func() dust.Resources {
				return dust.Resources{UtilPct: utils[i], DataMb: 50, NumAgents: 10}
			},
			OnHost: func(busy int, amount float64, route []int32) bool {
				fmt.Printf("  %s: hosting %.1f pts from %s (route %v)\n", names[i], amount, names[busy], route)
				return true
			},
			OnRedirect: func(amount float64, route []int32) {
				fmt.Printf("  %s: redirecting %.1f pts of monitoring along %v\n", names[i], amount, route)
			},
			OnReplica: func(busy, failed int, amount float64) {
				fmt.Printf("  %s: substituting failed %s, hosting %.1f pts from %s\n",
					names[i], names[failed], amount, names[busy])
			},
			OnRelease: func(busy int) {
				fmt.Printf("  %s: released %s's workload\n", names[i], names[busy])
			},
		}, conn)
		if err != nil {
			log.Fatal(err)
		}
		if err := cl.Handshake(); err != nil {
			log.Fatal(err)
		}
		clients[i] = cl
		go func() { // message pump
			for {
				if _, err := cl.Step(); err != nil {
					return
				}
			}
		}()
		if err := cl.SendStat(); err != nil {
			log.Fatal(err)
		}
	}

	waitFor(func() bool {
		for i := range clients {
			rec, ok := mgr.NMDB().Client(i)
			if !ok || rec.UtilPct != utils[i] {
				return false
			}
		}
		return true
	})
	fmt.Println("all 7 clients registered and reporting STAT")

	report, err := mgr.RunPlacement()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: %v, β=%.2f, accepted=%d\n",
		report.Result.Status, report.Result.Objective, len(report.Accepted))

	// The destination (S2) keepalives once, then fails; S6 substitutes.
	dest := report.Accepted[0].Candidate
	if err := clients[dest].SendKeepalive(); err != nil {
		log.Fatal(err)
	}
	waitFor(func() bool {
		rec, _ := mgr.NMDB().Client(dest)
		return !rec.LastKeepalive.IsZero()
	})
	fmt.Printf("\nsimulating failure of destination %s (keepalive stops)...\n", names[dest])
	clock.Advance(5 * time.Minute)
	subs, err := mgr.CheckKeepalives()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range subs {
		fmt.Printf("manager: failed=%s busy=%s replica=%s amount=%.1f notified=%v\n",
			names[s.Failed], names[s.Busy], names[s.Replica], s.Amount, s.Notified)
	}

	// Busy node recovers; the next placement round releases its offload.
	var mu sync.Mutex
	mu.Lock()
	utils[0] = 60
	mu.Unlock()
	if err := clients[0].SendStat(); err != nil {
		log.Fatal(err)
	}
	waitFor(func() bool {
		rec, _ := mgr.NMDB().Client(0)
		return rec.UtilPct == 60
	})
	report, err = mgr.RunPlacement()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nS1 recovered; the next placement round released %d assignment(s)\n", len(report.Released))
	time.Sleep(100 * time.Millisecond) // let release messages drain
}

type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatal("timeout waiting for cluster state")
}
