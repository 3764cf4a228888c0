package chaos

import (
	"testing"

	"finitelb/internal/workload"
)

// TestResolveDeterminism is the CI chaos-determinism gate (-short safe):
// the same (spec, seed, n) must resolve to an identical injection
// schedule, and a different seed must pick different victims.
func TestResolveDeterminism(t *testing.T) {
	c, err := workload.ParseChurn("churn:crash@t=100,crash@t=200,restore@t=500,slow@t=600@f=4,restore@t=900")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Resolve(c, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(c, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := range a {
		if a[i].Server < 0 || a[i].Server >= 8 {
			t.Errorf("event %d left unresolved: %v", i, a[i])
		}
	}
	// Different seeds must (for this schedule over 8 servers) disagree on
	// at least one victim.
	diverged := false
	for seed := uint64(1); seed <= 16 && !diverged; seed++ {
		d, err := Resolve(c, seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if d[i].Server != a[i].Server {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("16 different seeds all picked the same victims")
	}
	// Explicit assignments survive resolution untouched.
	c2, err := workload.ParseChurn("crash@t=1@s=5,restore@t=2@s=5")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resolve(c2, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Server != 5 || r[1].Server != 5 {
		t.Errorf("explicit servers rewritten: %v", r)
	}
}

func TestResolveTracksMembership(t *testing.T) {
	// With n=2 the resolver must restore the crashed server (only down
	// candidate) and refuse to crash the last one standing.
	c, _ := workload.ParseChurn("crash@t=1,restore@t=2,crash@t=3")
	r, err := Resolve(c, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r[1].Server != r[0].Server {
		t.Errorf("restore picked %d, want the crashed server %d", r[1].Server, r[0].Server)
	}

	for _, spec := range []string{
		"crash@t=1,crash@t=2",            // would down both of n=2
		"crash@t=1@s=0,crash@t=2@s=0",    // double-crash same server
		"restore@t=1",                    // nothing down to restore
		"crash@t=1@s=9",                  // out of range for n=2
		"slow@t=1@s=0@f=2,crash@t=0@s=0", // (sorted) crash then slow on the downed server...
	} {
		c, err := workload.ParseChurn(spec)
		if err != nil {
			t.Fatalf("spec %q failed to parse: %v", spec, err)
		}
		if _, err := Resolve(c, 1, 2); err == nil {
			t.Errorf("Resolve accepted invalid schedule %q", spec)
		}
	}
}

func TestResolveNoChurn(t *testing.T) {
	if evs, err := Resolve(nil, 1, 4); evs != nil || err != nil {
		t.Errorf("Resolve(nil) = %v, %v", evs, err)
	}
	if evs, err := Resolve(&workload.Churn{}, 1, 4); evs != nil || err != nil {
		t.Errorf("Resolve(empty) = %v, %v", evs, err)
	}
}
