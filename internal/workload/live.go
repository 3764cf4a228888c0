package workload

import "fmt"

// Live is an immutable snapshot of a farm's membership: which of its
// servers are up. It is the one definition of a degraded farm both hosts
// share: k servers down *is* the farm of the Alive() survivors. A host
// shows its pickers a Queues view of Alive() servers addressed by *rank*
// (position among the live ids, ascending), maps the picked rank back
// with ID, and rebuilds its per-stream Picker with NewPicker whenever the
// snapshot changes — so every policy, healthy or degraded, is the
// ordinary picker on a smaller farm, and no view ever has to lie about a
// down server's queue.
//
// Without and With are the membership rulebook: a server goes down at
// most once, comes back only if it was down, and the last live server
// never leaves. They return a new snapshot and leave the receiver
// untouched, so a snapshot can be published to concurrent readers
// through one atomic pointer.
type Live struct {
	ids  []int32 // live server ids, ascending
	rank []int32 // rank[id] = index of id in ids, −1 when id is down
}

// NewLive returns the all-up snapshot of an n-server farm.
func NewLive(n int) *Live {
	l := &Live{ids: make([]int32, n), rank: make([]int32, n)}
	for i := range l.ids {
		l.ids[i] = int32(i)
		l.rank[i] = int32(i)
	}
	return l
}

// Size returns the number of servers in the farm, up or down.
func (l *Live) Size() int { return len(l.rank) }

// Alive returns the number of live servers.
func (l *Live) Alive() int { return len(l.ids) }

// ID returns the server id at rank r, 0 ≤ r < Alive().
//
//finitelb:hotpath
func (l *Live) ID(r int) int { return int(l.ids[r]) }

// Rank returns the rank of server id among the live servers, or −1 when
// it is down.
//
//finitelb:hotpath
func (l *Live) Rank(id int) int { return int(l.rank[id]) }

// Without returns the snapshot with server id taken down. It refuses an
// id outside the farm, a server that is already down, and the last live
// server.
func (l *Live) Without(id int) (*Live, error) {
	switch {
	case id < 0 || id >= len(l.rank):
		return nil, fmt.Errorf("workload: server %d outside the farm [0, %d)", id, len(l.rank))
	case l.rank[id] < 0:
		return nil, fmt.Errorf("workload: server %d is already down", id)
	case len(l.ids) == 1:
		return nil, fmt.Errorf("workload: server %d is the last live server", id)
	}
	return l.rebuilt(id, false), nil
}

// With returns the snapshot with server id brought back up. It refuses
// an id outside the farm and a server that is already up.
func (l *Live) With(id int) (*Live, error) {
	switch {
	case id < 0 || id >= len(l.rank):
		return nil, fmt.Errorf("workload: server %d outside the farm [0, %d)", id, len(l.rank))
	case l.rank[id] >= 0:
		return nil, fmt.Errorf("workload: server %d is already up", id)
	}
	return l.rebuilt(id, true), nil
}

// rebuilt copies the snapshot with server flip's membership set to up.
func (l *Live) rebuilt(flip int, up bool) *Live {
	n := &Live{ids: make([]int32, 0, len(l.ids)+1), rank: make([]int32, len(l.rank))}
	for id, r := range l.rank {
		isUp := r >= 0
		if id == flip {
			isUp = up
		}
		if !isUp {
			n.rank[id] = -1
			continue
		}
		n.rank[id] = int32(len(n.ids))
		n.ids = append(n.ids, int32(id))
	}
	return n
}

// NewPicker instantiates pol for the live servers: the policy's ordinary
// picker on a farm of Alive() servers. SQ(d) clamps d to the survivors,
// so a farm degraded below d samples everyone left instead of failing.
func (l *Live) NewPicker(pol Policy) (Picker, error) {
	if s, ok := pol.(SQD); ok && s.D > l.Alive() {
		pol = SQD{D: l.Alive()}
	}
	return pol.NewPicker(l.Alive())
}
