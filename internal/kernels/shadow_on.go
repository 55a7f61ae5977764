//go:build shadowtrace

package kernels

import (
	"fmt"
	"sync"

	"stef/internal/sched"
)

// shadowState is the dynamic half of the write-disjointness verification:
// while a kernel launch is active it records which thread claimed each
// (level, node) store and panics the moment Algorithm 3's ownership
// discipline is violated — two threads writing the same canonical row, a
// boundary replica write for a node the partition never declared shared,
// or a thread emitting more than one replica write per level. The static
// write-disjoint analyzer proves stores are *indexed* disjointly; this
// oracle checks the partition actually *delivers* disjoint indices, so the
// two verifications cover each other's blind spot.
//
// The mutex serialises claims, which deliberately destroys kernel
// performance; this build tag exists only for tests (-tags shadowtrace).
type shadowState struct {
	mu      sync.Mutex
	part    *sched.Partition
	owner   map[shadowKey]int // (level, node) -> claiming thread
	replica map[[2]int]int64  // (thread, level) -> node of its replica write
}

type shadowKey struct {
	level int
	id    int64
}

// begin arms the oracle for one kernel launch over the given partition.
func (s *shadowState) begin(p *sched.Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.part = p
	if s.owner == nil {
		s.owner = make(map[shadowKey]int)
		s.replica = make(map[[2]int]int64)
	}
	clear(s.owner)
	clear(s.replica)
}

// end disarms the oracle.
func (s *shadowState) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.part = nil
}

// own records a canonical (owned) store of level-l node id by thread th.
func (s *shadowState) own(th, level int, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.part == nil {
		return // kernel invoked outside begin/end (direct *Thread call in tests)
	}
	key := shadowKey{level, id}
	if prev, claimed := s.owner[key]; claimed && prev != th {
		panic(fmt.Sprintf("kernels: shadow: level %d node %d written by thread %d and thread %d outside the boundary set",
			level, id, prev, th))
	}
	s.owner[key] = th
}

// ownRun records own(th, level, k) for every leaf k of every fiber of a
// run: the per-leaf claims of one fiber-primitive call.
func (s *shadowState) ownRun(th, level int, r *fiberRun) {
	for c := range r.mids {
		lo, hi := r.window(c)
		for k := lo; k < hi; k++ {
			s.own(th, level, k)
		}
	}
}

// ownNodeRun records own(th, level, k) for every leaf k of every fiber of
// every node of a node run: the per-leaf claims of one two-level call.
func (s *shadowState) ownNodeRun(th, level int, nr *nodeRun) {
	for n := range nr.nids {
		r := nr.run(n)
		s.ownRun(th, level, &r)
	}
}

// boundary records a store of level-l node id through thread th's boundary
// replica row and checks it against the partition's declaration.
func (s *shadowState) boundary(th, l int, id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.part == nil {
		return
	}
	declared, ok := s.part.DeclaredBoundary(th, l)
	if !ok {
		panic(fmt.Sprintf("kernels: shadow: thread %d wrote a boundary replica at level %d, but the partition declares no shared start there",
			th, l))
	}
	if id != declared {
		panic(fmt.Sprintf("kernels: shadow: thread %d replica write at level %d hit node %d, declared boundary is node %d",
			th, l, id, declared))
	}
	rk := [2]int{th, l}
	if prev, seen := s.replica[rk]; seen && prev != id {
		panic(fmt.Sprintf("kernels: shadow: thread %d emitted replica writes for nodes %d and %d at level %d; Algorithm 3 admits one",
			th, prev, id, l))
	}
	s.replica[rk] = id
}

// outbufShadow is the dynamic oracle for planned accumulation buffers: it
// checks every hot-replica and cold-direct store against the plan's write
// census, panicking when a store uses a slot the remap does not declare for
// its row, or when a second thread direct-writes a row the census proved
// single-writer. Armed by Reset (planned buffers only); like shadowState,
// the mutex deliberately serialises claims — shadowtrace builds exist only
// for tests.
type outbufShadow struct {
	mu     sync.Mutex
	armed  bool
	direct map[int]int // row -> thread that direct-wrote it this launch
}

// shadowReset arms the oracle for the next kernel launch and forgets the
// previous launch's direct-write claims.
func (b *OutBuf) shadowReset() {
	s := &b.shadow
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = b.plan != nil
	if s.direct == nil {
		s.direct = make(map[int]int)
	}
	clear(s.direct)
}

// shadowHot records a hot-replica store of `row` through `slot` by thread
// th and checks it against the plan's remap.
func (b *OutBuf) shadowHot(th, row int, slot int32) {
	s := &b.shadow
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return
	}
	ap := b.plan
	if ap.Strategy != AccumHybrid {
		panic(fmt.Sprintf("kernels: shadow: hot-replica write on a %v buffer", ap.Strategy))
	}
	if row < 0 || row >= len(ap.Remap) {
		panic(fmt.Sprintf("kernels: shadow: thread %d hot-replica write for out-of-range row %d", th, row))
	}
	if ap.Remap[row] != slot {
		panic(fmt.Sprintf("kernels: shadow: thread %d hot-replica write for row %d through slot %d; the plan's remap declares %d",
			th, row, slot, ap.Remap[row]))
	}
}

// shadowDirect records a plain (non-atomic) shared-buffer store of `row` by
// thread th; a second thread storing the same row this launch means the
// single-writer proof was wrong and the store races.
func (b *OutBuf) shadowDirect(th, row int) {
	s := &b.shadow
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return
	}
	ap := b.plan
	if row < 0 || row >= len(ap.Remap) || ap.Remap[row] != RemapColdDirect {
		panic(fmt.Sprintf("kernels: shadow: thread %d plain store to row %d, which the plan's remap does not declare cold-direct",
			th, row))
	}
	if prev, seen := s.direct[row]; seen && prev != th {
		panic(fmt.Sprintf("kernels: shadow: row %d direct-written by thread %d and thread %d; the census declared a single writer",
			row, prev, th))
	}
	s.direct[row] = th
}
