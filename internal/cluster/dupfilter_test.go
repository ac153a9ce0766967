package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/proto"
)

// mapRingFilter is the client's earlier duplicate filter, kept as the
// reference: a set of the accepted seqs plus a re-sliced ring evicting the
// oldest once more than seenWindow are held.
type mapRingFilter struct {
	seen map[uint64]struct{}
	ring []uint64
}

func (f *mapRingFilter) duplicate(seq uint64) bool {
	if _, dup := f.seen[seq]; dup {
		return true
	}
	f.seen[seq] = struct{}{}
	f.ring = append(f.ring, seq)
	if len(f.ring) > seenWindow {
		delete(f.seen, f.ring[0])
		f.ring = f.ring[1:]
	}
	return false
}

// TestDupFilterMatchesMapRing feeds the fixed-memory filter and the
// reference the same random streams — mostly increasing seqs with
// replays of recent and long-gone ones, local reordering and gaps — well
// past the window, and requires identical verdicts throughout.
func TestDupFilterMatchesMapRing(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got dupFilter
		want := mapRingFilter{seen: map[uint64]struct{}{}}
		var sent []uint64
		next := uint64(rng.Intn(3))
		for i := 0; i < 3*seenWindow+500; i++ {
			var seq uint64
			switch r := rng.Intn(20); {
			case r < 2 && len(sent) > 0: // replay of a recent message
				seq = sent[len(sent)-1-rng.Intn(min(len(sent), 64))]
			case r < 3 && len(sent) > 0: // replay from anywhere, often beyond the window
				seq = sent[rng.Intn(len(sent))]
			case r < 5: // a reordered straggler just behind the head
				seq = next - uint64(rng.Intn(int(min(next, 8))+1))
			default:
				next += 1 + uint64(rng.Intn(3))
				seq = next
			}
			sent = append(sent, seq)
			if g, w := got.duplicate(seq), want.duplicate(seq); g != w {
				t.Fatalf("seed %d message %d seq %d: fixed-memory filter says duplicate=%v, reference %v", seed, i, seq, g, w)
			}
		}
		if len(got.ring) != seenWindow {
			t.Fatalf("seed %d: ring holds %d seqs, want the full window %d", seed, len(got.ring), seenWindow)
		}
	}
}

// TestReconnectResetsDupFilter: a fresh manager incarnation (a promoted
// standby, a restarted manager) numbers its frames from 1 again. An offer
// from manager B must not be discarded as a replay because manager A once
// sent the same seq on the link the client left; a replay on B's own link
// still is.
func TestReconnectResetsDupFilter(t *testing.T) {
	ack := &proto.Message{Type: proto.MsgAck, From: ManagerNode, To: 4, Seq: 1, UpdateIntervalSec: 60}
	offer := func(seq uint64, busy int32, amount float64) *proto.Message {
		return &proto.Message{
			Type: proto.MsgOffloadRequest, From: ManagerNode, To: 4, Seq: seq,
			BusyNode: busy, AmountPct: amount, RouteNodes: []int32{busy, 4},
		}
	}
	clientA, managerA := proto.Pipe(16)
	clientB, managerB := proto.Pipe(16)
	defer managerA.Close()
	defer managerB.Close()
	var hosted []int
	cl, err := NewClient(ClientConfig{
		Node:         4,
		Capable:      true,
		Resources:    func() Resources { return Resources{} },
		OnHost:       func(busy int, _ float64, _ []int32) bool { hosted = append(hosted, busy); return true },
		Dial:         func() (proto.Conn, error) { return clientB, nil },
		ReconnectMin: time.Millisecond,
		Seed:         1,
	}, clientA)
	if err != nil {
		t.Fatal(err)
	}
	// Each manager's ACK is queued before the client asks for it.
	if err := managerA.Send(ack); err != nil {
		t.Fatal(err)
	}
	if err := cl.Handshake(); err != nil {
		t.Fatal(err)
	}
	step := func(from proto.Conn, m *proto.Message) {
		t.Helper()
		if err := from.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step(managerA, offer(5, 7, 4))

	clientA.Close()
	if err := managerB.Send(ack); err != nil {
		t.Fatal(err)
	}
	if err := cl.reconnect(context.Background()); err != nil {
		t.Fatal(err)
	}
	step(managerB, offer(5, 9, 6))
	step(managerB, offer(5, 9, 99)) // a replay on B's link

	if len(hosted) != 2 || hosted[0] != 7 || hosted[1] != 9 {
		t.Fatalf("OnHost calls for busy nodes %v, want [7 9]", hosted)
	}
	if got := cl.Hosting(); len(got) != 2 || got[7] != 4 || got[9] != 6 {
		t.Fatalf("hosting = %v, want map[7:4 9:6]", got)
	}
}
