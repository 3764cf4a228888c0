package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, and overshoots every sleep.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	stallAt   int // the sleep with this index takes stall longer
	stall     time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.overshoot)
	}
	if c.sleeps == c.stallAt {
		c.now = c.now.Add(c.stall)
	}
	c.sleeps++
}

func TestPaceKeepsTheTimelineThroughAStall(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: 30 * time.Microsecond, stallAt: 3, stall: 25 * time.Millisecond}
	s := schedule{Start: start.Add(time.Millisecond), Interval: 10 * time.Millisecond, N: 8}
	var late []time.Duration
	pace(clk, s, func(tk ticket) {
		if want := s.Start.Add(time.Duration(tk.I) * s.Interval); !tk.Due.Equal(want) {
			t.Errorf("ticket %d due %v, want %v: the timeline shifted", tk.I, tk.Due, want)
		}
		late = append(late, lateness(tk.Due, clk.Now()))
	})
	if len(late) != s.N {
		t.Fatalf("emitted %d tickets, want %d", len(late), s.N)
	}
	// Sends before the stall are late by the sleep overshoot only.
	for i := 0; i < 3; i++ {
		if late[i] != 30*time.Microsecond {
			t.Errorf("ticket %d late by %v, want the 30µs overshoot", i, late[i])
		}
	}
	// The stalled send and the ones that were due during the stall are
	// late by what is left of it; none is timed from its actual send.
	want := []time.Duration{25*time.Millisecond + 30*time.Microsecond, 15*time.Millisecond + 30*time.Microsecond, 5*time.Millisecond + 30*time.Microsecond}
	for i, w := range want {
		if late[3+i] != w {
			t.Errorf("ticket %d late by %v, want %v", 3+i, late[3+i], w)
		}
	}
	if late[6] != 30*time.Microsecond || late[7] != 30*time.Microsecond {
		t.Errorf("after the stall drained lateness should return to the overshoot, got %v %v", late[6], late[7])
	}
}

func TestLatenessIsNeverNegative(t *testing.T) {
	due := time.Unix(5, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early send is late by %v, want 0", got)
	}
}
