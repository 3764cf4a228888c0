package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// fake so the schedule and its lateness are checked without a scheduler.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// schedule is a fixed open-loop timeline: operation i is due at
// Start + i·Interval, whatever happened to the operations before it.
type schedule struct {
	Start    time.Time
	Interval time.Duration
	N        int
}

func (s schedule) due(i int) time.Time { return s.Start.Add(time.Duration(i) * s.Interval) }

// ticket is one due operation handed to a sender.
type ticket struct {
	I   int
	Due time.Time
}

// pace walks the schedule on clk and emits each operation at its due
// instant. Due instants come from the schedule, never from when the
// previous emit happened, so a stall delays sends but does not shift the
// timeline: every later operation is still timed from when it should have
// gone out. emit must not block (the caller gives it a channel with room
// for the whole schedule).
func pace(clk clock, s schedule, emit func(ticket)) {
	for i := 0; i < s.N; i++ {
		due := s.due(i)
		clk.SleepUntil(due)
		emit(ticket{I: i, Due: due})
	}
}

// lateness is how long after its due instant an operation was really sent.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}
