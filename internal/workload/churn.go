package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ChurnKind enumerates the membership and fault-injection events a churn
// schedule can carry. The same vocabulary drives both execution engines:
// the simulator applies events on model time, the live runtime
// (internal/lb) on the wall clock scaled by its mean service time, so a
// live chaos scenario always has a seed-reproducible sim twin.
type ChurnKind uint8

const (
	// ChurnCrash fails a server abruptly: its in-service job is
	// interrupted and every job it held is requeued through the retry
	// path (bounded redelivery budget; lost service is re-executed).
	ChurnCrash ChurnKind = iota
	// ChurnLeave removes a server gracefully: the in-service job
	// completes, queued jobs are requeued, no new work is routed to it.
	ChurnLeave
	// ChurnRestore returns a crashed or departed server to the farm.
	ChurnRestore
	// ChurnSlow degrades a server's speed: service durations multiply by
	// the event's Factor until a restore (Factor 1 resets).
	ChurnSlow
	// ChurnStall freezes a server for Dur: it serves nothing while
	// stalled, then resumes with its queue intact. Live-only (the
	// simulator rejects it; see internal/sim).
	ChurnStall
	// ChurnPause suspends the dispatcher: submissions block until the
	// matching resume. Live-only.
	ChurnPause
	// ChurnResume releases a dispatcher pause.
	ChurnResume
)

// churnKindNames maps kinds to their canonical spec names.
var churnKindNames = [...]string{"crash", "leave", "restore", "slow", "stall", "pause", "resume"}

func (k ChurnKind) String() string {
	if int(k) < len(churnKindNames) {
		return churnKindNames[k]
	}
	return fmt.Sprintf("churnkind(%d)", int(k))
}

// ChurnEvent is one scheduled event. T is in mean service times from the
// start of the run. Server is the target (−1 = unassigned; the
// deterministic resolver in internal/chaos picks one). Factor is the
// service-time multiplier of a slow event; Dur the span of a stall.
type ChurnEvent struct {
	Kind   ChurnKind
	T      float64
	Server int
	Factor float64
	Dur    float64
}

// String renders the event in the spec grammar.
func (e ChurnEvent) String() string {
	var b strings.Builder
	b.WriteString(e.Kind.String())
	fmt.Fprintf(&b, "@t=%g", e.T)
	if e.Server >= 0 {
		fmt.Fprintf(&b, "@s=%d", e.Server)
	}
	if e.Kind == ChurnSlow {
		fmt.Fprintf(&b, "@f=%g", e.Factor)
	}
	if e.Kind == ChurnStall {
		fmt.Fprintf(&b, "@d=%g", e.Dur)
	}
	return b.String()
}

// Churn is a schedule of events, sorted by time (stable for equal
// stamps, preserving spec order).
type Churn struct {
	Events []ChurnEvent
}

// String renders the canonical spec (parseable by ParseChurn).
func (c *Churn) String() string {
	if c == nil || len(c.Events) == 0 {
		return ""
	}
	parts := make([]string, len(c.Events))
	for i, e := range c.Events {
		parts[i] = e.String()
	}
	return "churn:" + strings.Join(parts, ",")
}

// churnGrammar restates the accepted event shapes, so a malformed spec
// is self-diagnosing (same convention as checkKeys).
const churnGrammar = "grammar: KIND@t=T[@s=SERVER][@f=FACTOR][@d=DUR], events comma-separated, " +
	"T finite ≥ 0, FACTOR and DUR finite > 0, " +
	"kinds: crash, leave, restore|join, slow (needs f), stall (needs d), pause, resume; " +
	"the bare first value binds to t (crash@500 ≡ crash@t=500)"

// ParseChurn parses a churn schedule spec:
//
//	""                                      no churn (nil)
//	"churn:crash@t=500,restore@t=900"       the prefix is optional
//	"crash@500@s=2,slow@t=300@s=1@f=4"      bare first value is t
//
// Event arguments are @-separated (the comma separates events): t is the
// event time in mean service times (required, finite, ≥ 0), s the target server
// (optional; unassigned events are picked deterministically by
// internal/chaos.Resolve), f the slow factor (finite, > 0, slow only), d
// the stall duration (finite, > 0, stall only). Events are sorted by t,
// stably.
func ParseChurn(spec string) (*Churn, error) {
	spec = strings.TrimSpace(spec)
	spec = strings.TrimPrefix(spec, "churn:")
	if spec == "" {
		return nil, nil
	}
	var c Churn
	for _, raw := range strings.Split(spec, ",") {
		ev, err := parseChurnEvent(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("workload: churn event %q: %w (%s)", raw, err, churnGrammar)
		}
		c.Events = append(c.Events, ev)
	}
	sort.SliceStable(c.Events, func(i, j int) bool { return c.Events[i].T < c.Events[j].T })
	return &c, nil
}

// parseFinite parses a finite number. strconv.ParseFloat alone accepts
// "inf" and "nan": an event at t=inf never fires and blocks every later
// one, a server slowed by f=inf never completes.
func parseFinite(val string) (float64, bool) {
	x, err := strconv.ParseFloat(val, 64)
	return x, err == nil && !math.IsInf(x, 0) && !math.IsNaN(x)
}

func parseChurnEvent(raw string) (ChurnEvent, error) {
	parts := strings.Split(raw, "@")
	ev := ChurnEvent{Server: -1, T: -1}
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	switch kind {
	case "crash":
		ev.Kind = ChurnCrash
	case "leave":
		ev.Kind = ChurnLeave
	case "restore", "join":
		ev.Kind = ChurnRestore
	case "slow":
		ev.Kind = ChurnSlow
	case "stall":
		ev.Kind = ChurnStall
	case "pause":
		ev.Kind = ChurnPause
	case "resume":
		ev.Kind = ChurnResume
	default:
		return ev, fmt.Errorf("unknown kind %q", kind)
	}
	seen := map[string]bool{}
	for i, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		eq := strings.IndexByte(kv, '=')
		key, val := "t", kv
		if eq >= 0 {
			key, val = strings.ToLower(strings.TrimSpace(kv[:eq])), strings.TrimSpace(kv[eq+1:])
		} else if i > 0 {
			return ev, fmt.Errorf("malformed argument %q", kv)
		}
		if seen[key] {
			return ev, fmt.Errorf("duplicate argument %q", key)
		}
		seen[key] = true
		switch key {
		case "t":
			t, ok := parseFinite(val)
			if !ok || t < 0 {
				return ev, fmt.Errorf("t=%q is not a finite time ≥ 0", val)
			}
			ev.T = t
		case "s":
			s, err := strconv.Atoi(val)
			if err != nil || s < 0 {
				return ev, fmt.Errorf("s=%q is not a server index ≥ 0", val)
			}
			ev.Server = s
		case "f":
			if ev.Kind != ChurnSlow {
				return ev, fmt.Errorf("argument f only applies to slow events")
			}
			f, ok := parseFinite(val)
			if !ok || f <= 0 {
				return ev, fmt.Errorf("f=%q is not a finite factor > 0", val)
			}
			ev.Factor = f
		case "d":
			if ev.Kind != ChurnStall {
				return ev, fmt.Errorf("argument d only applies to stall events")
			}
			d, ok := parseFinite(val)
			if !ok || d <= 0 {
				return ev, fmt.Errorf("d=%q is not a finite duration > 0", val)
			}
			ev.Dur = d
		default:
			return ev, fmt.Errorf("unknown argument %q", key)
		}
	}
	if ev.T < 0 {
		return ev, fmt.Errorf("missing required argument t")
	}
	if ev.Kind == ChurnSlow && ev.Factor == 0 {
		return ev, fmt.Errorf("slow needs a factor (f=F)")
	}
	if ev.Kind == ChurnStall && ev.Dur == 0 {
		return ev, fmt.Errorf("stall needs a duration (d=D)")
	}
	if (ev.Kind == ChurnPause || ev.Kind == ChurnResume) && ev.Server >= 0 {
		return ev, fmt.Errorf("%s is dispatcher-wide; it takes no server", ev.Kind)
	}
	return ev, nil
}
