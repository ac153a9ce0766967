package cluster

import (
	"math/rand"
	"testing"
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
