package workload

import (
	"strings"
	"testing"
)

func TestParseChurn(t *testing.T) {
	c, err := ParseChurn("churn:crash@t=500,restore@t=900")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(c.Events))
	}
	if c.Events[0].Kind != ChurnCrash || c.Events[0].T != 500 || c.Events[0].Server != -1 {
		t.Errorf("event 0 = %+v, want crash@t=500 unassigned", c.Events[0])
	}
	if c.Events[1].Kind != ChurnRestore || c.Events[1].T != 900 {
		t.Errorf("event 1 = %+v, want restore@t=900", c.Events[1])
	}

	// The prefix is optional, the bare first value binds to t, join
	// aliases restore, and events sort by time.
	c, err = ParseChurn("join@900@s=3,slow@t=100@s=1@f=4,stall@200@d=50,crash@0")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]ChurnKind, len(c.Events))
	for i, e := range c.Events {
		kinds[i] = e.Kind
	}
	want := []ChurnKind{ChurnCrash, ChurnSlow, ChurnStall, ChurnRestore}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("sorted kinds %v, want %v", kinds, want)
		}
	}
	if c.Events[1].Factor != 4 || c.Events[1].Server != 1 {
		t.Errorf("slow event = %+v, want f=4 s=1", c.Events[1])
	}
	if c.Events[2].Dur != 50 {
		t.Errorf("stall event = %+v, want d=50", c.Events[2])
	}
	if c.Events[3].Server != 3 {
		t.Errorf("join event = %+v, want s=3", c.Events[3])
	}
}

func TestParseChurnEmpty(t *testing.T) {
	for _, spec := range []string{"", "churn:", "  "} {
		c, err := ParseChurn(spec)
		if err != nil || c != nil {
			t.Errorf("ParseChurn(%q) = %v, %v, want nil, nil", spec, c, err)
		}
	}
}

func TestParseChurnRoundTrip(t *testing.T) {
	const spec = "churn:crash@t=0@s=2,slow@t=100@s=1@f=4,stall@t=200@s=0@d=50,restore@t=900@s=2"
	c, err := ParseChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != spec {
		t.Errorf("round trip %q, want %q", got, spec)
	}
	c2, err := ParseChurn(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Events) != len(c.Events) {
		t.Fatalf("re-parse lost events: %d vs %d", len(c2.Events), len(c.Events))
	}
}

func TestParseChurnErrors(t *testing.T) {
	for _, spec := range []string{
		"explode@t=1",     // unknown kind
		"crash",           // missing t
		"crash@t=-1",      // negative time
		"crash@t=x",       // non-numeric time
		"crash@t=1@s=-2",  // negative server
		"crash@t=1@q=3",   // unknown key
		"crash@t=1@t=2",   // duplicate key
		"slow@t=1",        // slow without factor
		"slow@t=1@f=0",    // non-positive factor
		"slow@t=1@f=inf",  // a server that never completes
		"slow@t=1@f=nan",  // non-numeric factor, accepted by ParseFloat
		"crash@t=inf",     // an event that never fires and blocks the rest
		"crash@t=nan",     // NaN time
		"stall@t=1@d=inf", // a stall that never ends
		"stall@t=1",       // stall without duration
		"crash@t=1@f=2",   // f on a non-slow event
		"crash@t=1@d=2",   // d on a non-stall event
		"pause@t=1@s=0",   // pause takes no server
		"crash@t=1@1@s=2", // bare value not in first position
	} {
		if _, err := ParseChurn(spec); err == nil {
			t.Errorf("ParseChurn(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), "grammar") {
			t.Errorf("ParseChurn(%q) error lacks the grammar restatement: %v", spec, err)
		}
	}
}
