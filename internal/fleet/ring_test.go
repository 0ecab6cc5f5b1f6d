package fleet

import (
	"fmt"
	"testing"
)

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return ids
}

// TestRingBalance checks that the virtual nodes spread a large key
// population roughly evenly: no replica of an 8-replica ring owns less than
// a third or more than triple its fair share.
func TestRingBalance(t *testing.T) {
	const replicas, keys = 8, 20000
	r, err := NewRing(ringIDs(replicas))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, replicas)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	fair := keys / replicas
	for i, c := range counts {
		if c < fair/3 || c > 3*fair {
			t.Errorf("replica %d owns %d of %d keys (fair share %d): imbalance beyond 3x", i, c, keys, fair)
		}
	}
}

// TestRingStability is the consistent-hashing property: taking one replica
// down moves only the keys it owned — every key owned by a surviving
// replica keeps its owner — and recovery restores the original assignment
// exactly.
func TestRingStability(t *testing.T) {
	const replicas, keys = 5, 4000
	const down = 2
	r, err := NewRing(ringIDs(replicas))
	if err != nil {
		t.Fatal(err)
	}
	live := func(i int) bool { return i != down }

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.Lookup(key)
		after, ok := r.LookupLive(key, live)
		if !ok {
			t.Fatalf("key %q: no live replica with %d of %d up", key, replicas-1, replicas)
		}
		if before != down {
			if after != before {
				t.Fatalf("key %q owned by live replica %d moved to %d when replica %d went down", key, before, after, down)
			}
			continue
		}
		if after == down {
			t.Fatalf("key %q still routed to the down replica", key)
		}
		moved++
		// Recovery: with every replica live again the key returns home.
		if again := r.Lookup(key); again != down {
			t.Fatalf("key %q: owner %d after recovery, want %d", key, again, down)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the downed replica; balance test should have caught this")
	}
}

// TestRingDeterminism: two rings over the same identifiers agree on every
// lookup (routing must be reproducible across router restarts).
func TestRingDeterminism(t *testing.T) {
	a, err := NewRing(ringIDs(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(ringIDs(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("q-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("rings disagree on %q", key)
		}
	}
}

// TestRingRejectsDuplicates: duplicate replica ids would silently halve the
// fleet, so construction must fail.
func TestRingRejectsDuplicates(t *testing.T) {
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate replica ids accepted")
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty replica set accepted")
	}
}
