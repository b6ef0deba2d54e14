package stm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// One recorder and one checker referee every concurrency test of the
// runtime (DESIGN.md §8). A driver records a History — every attempt of
// every transaction, what each read returned, what it wrote and whether it
// committed — and Check proves the committed transactions serializable and
// every attempt, aborted, doomed and read-only ones included, opaque.
//
// A recorded transaction reads a location before it writes it (no blind
// writes) and writes a value unique to its worker, transaction and attempt.
// So the value a read returns names the attempt that wrote it, and a
// writer's own read names the version it replaced: the version order of
// every location is the chain "what the writer read -> what it wrote".
// Check builds Adya's direct serialization graph over it. Committed
// transactions are nodes; the writer of a version points to every reader of
// it (wr, which includes the ww edge to the writer of the next version,
// since that writer read it); a reader points to the writer of the version
// after the one it read (rw); and consecutive commits of one worker are
// chained (session order). The history is serializable iff that graph is
// acyclic. Opacity is the same rule: every other attempt joins the graph as
// a read-only node, and the graph must stay acyclic.

// cell is one location of a recorded history, a Var of any storage class
// (kind.go) holding the values the recorder writes.
type cell interface {
	read(tx *Tx) uint64
	write(tx *Tx, v uint64)
	peek() uint64
}

type cellOf[T any] struct {
	v    *Var[T]
	to   func(uint64) T
	from func(T) uint64
}

func (c cellOf[T]) read(tx *Tx) uint64     { return c.from(c.v.Read(tx)) }
func (c cellOf[T]) write(tx *Tx, v uint64) { c.v.Write(tx, c.to(v)) }
func (c cellOf[T]) peek() uint64           { return c.from(c.v.Peek()) }

func same(v uint64) uint64 { return v }

// pair is a boxed value with a check word: a box that tore reads as a
// value no attempt wrote.
type pair struct{ v, not uint64 }

// newCells returns n zero Vars — never written, so their first reads take
// that path — cycling through the scalar, pointer and boxed classes.
func newCells(n int) []cell {
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = [...]cell{
			cellOf[uint64]{new(Var[uint64]), same, same},
			cellOf[*uint64]{new(Var[*uint64]), func(v uint64) *uint64 { return &v }, func(p *uint64) uint64 {
				if p == nil {
					return 0
				}
				return *p
			}},
			cellOf[pair]{new(Var[pair]), func(v uint64) pair { return pair{v, ^v} }, func(p pair) uint64 {
				if p.not != ^p.v && p != (pair{}) {
					return ^uint64(0)
				}
				return p.v
			}},
		}[i%3]
	}
	return cells
}

// attempt is one execution of a transaction body.
type attempt struct {
	w, seq, n     int // worker, the worker's transaction index, tx.Attempt()
	id            int // node number in Check's graph
	committed     bool
	reads, writes []access
	after         []uint64 // attempts known to have committed before this one began
}

// access is one read or write, or a version: a cell and a value.
type access struct {
	c int
	v uint64
}

// val is the value every write of the attempt stores: unique to it, never
// the zero a location holds before its first write, and printed as its name.
func (a *attempt) val() uint64 { return uint64(a.w+1)<<48 | uint64(a.seq)<<24 | uint64(a.n) }

func (a *attempt) String() string { return name(a.val()) }

func (x access) String() string { return fmt.Sprintf("x%d=%s", x.c, name(x.v)) }

func name(v uint64) string {
	if v == 0 {
		return "init"
	}
	return fmt.Sprintf("w%d/t%d#%d", v>>48-1, v>>24&(1<<24-1), v&(1<<24-1))
}

func (a *attempt) saw(c int, v uint64) { a.reads = append(a.reads, access{c, v}) }

func (a *attempt) put(c int) uint64 {
	a.writes = append(a.writes, access{c, a.val()})
	return a.val()
}

// History is a recorded run: each worker's attempts in program order and
// the cells' values after the last run recorded into it.
type History struct {
	workers [][]*attempt
	final   []uint64

	// shardOf, set for a history of a ShardedRuntime, maps a cell to its
	// shard. Check then holds an aborted attempt to opacity one shard at a
	// time: AtomicAcross validates its sub-transactions against each other
	// only at commit, so an attempt it aborts may have read one shard
	// before, and another after, two consecutive commits of one worker.
	shardOf func(c int) int
}

// shape is a workload mix. An update transaction reads 1..reads distinct
// cells and writes 1..writes of them; audits percent of the transactions
// read every cell in a read-only block, and aborts percent of the updates
// return an error after writing. With yield set, a transaction yields the
// processor after each read, so other workers commit between its reads.
type shape struct {
	cells, reads, writes, audits, aborts int
	yield                                bool
}

// hotMix is the default: every kind of attempt, on one cell of each
// storage class, so that most transactions conflict. yieldMix is hotMix
// yielding between reads.
var (
	hotMix   = shape{cells: 3, reads: 2, writes: 2, audits: 10, aborts: 5}
	yieldMix = shape{cells: 3, reads: 2, writes: 2, audits: 10, aborts: 5, yield: true}
)

var errGaveUp = errors.New("history: the body gave up")

// runner runs one transaction over the given cells. body reaches a cell
// through the Tx on returns for it, and is told its attempt number.
type runner func(cells []int, readOnly bool, body func(on func(c int) *Tx, attempt int) error) error

func onRuntime(rt *Runtime) runner {
	return func(_ []int, readOnly bool, body func(func(int) *Tx, int) error) error {
		run := rt.Atomic
		if readOnly {
			run = rt.AtomicRO
		}
		return run(func(tx *Tx) error { return body(func(int) *Tx { return tx }, tx.Attempt()) })
	}
}

// stuck is how long record waits for a history of a few thousand
// transactions, a hundred times what one takes under the race detector. A
// worker that never finishes, or a location left locked, fails liveness.
const stuck = 20 * time.Second

// record runs workers goroutines of txs transactions each through run and
// appends their attempts to h. Transaction shapes are drawn from seed, so
// a seed replays the same transactions under a new schedule.
func (h *History) record(run runner, cells []cell, s shape, workers, txs int, seed int64) error {
	base := len(h.workers)
	h.workers = append(h.workers, make([][]*attempt, workers)...)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := base; w < base+workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(w)))
			log, order := &h.workers[w], rng.Perm(s.cells)
			for seq := 0; seq < txs; seq++ {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				pick, nw := order, 0
				audit := rng.Intn(100) < s.audits
				gaveUp := !audit && rng.Intn(100) < s.aborts
				if !audit {
					pick = pick[:1+rng.Intn(s.reads)]
					nw = 1 + rng.Intn(min(s.writes, len(pick)))
				}
				err := run(pick, audit, func(on func(int) *Tx, n int) error {
					a := &attempt{w: w, seq: seq, n: n, reads: make([]access, 0, len(pick)), writes: make([]access, 0, nw)}
					*log = append(*log, a)
					for _, c := range pick {
						a.saw(c, cells[c].read(on(c)))
						if s.yield {
							runtime.Gosched()
						}
					}
					for _, c := range pick[:nw] {
						cells[c].write(on(c), a.put(c))
					}
					if gaveUp {
						return errGaveUp
					}
					return nil
				})
				if err == nil {
					(*log)[len(*log)-1].committed = true
				} else if err != errGaveUp {
					errs[w-base] = fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}()
	}
	final := make(chan []uint64, 1)
	go func() {
		wg.Wait()
		vals := make([]uint64, len(cells))
		for i, c := range cells {
			vals[i] = c.peek()
		}
		final <- vals
	}()
	select {
	case h.final = <-final:
		return errors.Join(errs...)
	case <-time.After(stuck):
		return fmt.Errorf("history unfinished after %v: a worker or a location is stuck", stuck)
	}
}

// Check returns nil if the history's committed transactions are
// serializable and every attempt is opaque, and otherwise the first anomaly
// with the attempts it involves.
func (h *History) Check() error {
	var nodes []*attempt
	var edges [][]int
	edge := func(from, to int) { // from < 0: no node
		if from >= 0 && from != to {
			edges[from] = append(edges[from], to)
		}
	}
	byVal := map[uint64]*attempt{}
	next := map[access]*attempt{} // the commit that replaced a version
	for _, log := range h.workers {
		last := -1 // session order: the worker's previous commit
		for _, a := range log {
			a.id, nodes, edges = len(nodes), append(nodes, a), append(edges, nil)
			byVal[a.val()] = a
			if a.committed {
				edge(last, a.id)
				last = a.id
			}
			for _, x := range a.writes {
				r := slices.IndexFunc(a.reads, func(r access) bool { return r.c == x.c })
				if r < 0 {
					return fmt.Errorf("blind write: %v wrote x%d without reading it", a, x.c)
				}
				if b := next[a.reads[r]]; b != nil && a.committed {
					return fmt.Errorf("lost update: %v and %v both replaced %v", b, a, a.reads[r])
				} else if a.committed {
					next[a.reads[r]] = a
				}
			}
		}
	}
	// writer returns the commit that wrote version x (nil: never written).
	writer := func(x access) (*attempt, error) {
		if w := byVal[x.v]; x.v == 0 || w != nil && w.committed && slices.Contains(w.writes, x) {
			return w, nil
		} else if w != nil && slices.Contains(w.writes, x) {
			return nil, fmt.Errorf("%v, a dirty read of a write that never committed", x)
		}
		return nil, fmt.Errorf("%v, a value never written", x)
	}
	// node is the node of a's read of cell c: a's own, or a per-shard one
	// when a aborted and h.shardOf is set.
	split := map[[2]int]int{}
	node := func(a *attempt, c int) int {
		if a.committed || h.shardOf == nil {
			return a.id
		}
		k := [2]int{a.id, h.shardOf(c)}
		if _, ok := split[k]; !ok {
			split[k] = len(nodes)
			nodes, edges = append(nodes, a), append(edges, nil)
		}
		return split[k]
	}
	for _, a := range nodes { // the attempts: range does not see node's additions
		for _, r := range a.reads {
			w, err := writer(r)
			if err != nil {
				return fmt.Errorf("%v read %w", a, err)
			}
			if w != nil {
				edge(w.id, node(a, r.c))
			}
			if s := next[r]; s != nil {
				edge(node(a, r.c), s.id)
			}
		}
		for _, v := range a.after {
			w := byVal[v]
			if w == nil || !w.committed {
				return fmt.Errorf("%v began after %s, which never committed", a, name(v))
			}
			edge(w.id, a.id)
		}
	}
	for c, f := range h.final {
		if _, err := writer(access{c, f}); err != nil {
			return fmt.Errorf("final value %w", err)
		} else if s := next[access{c, f}]; s != nil {
			return fmt.Errorf("final %v is not the end of its chain: %v replaced it", access{c, f}, s)
		}
	}
	if cyc := cycle(edges); cyc != nil {
		var b strings.Builder
		for _, i := range cyc {
			a := nodes[i]
			fmt.Fprintf(&b, "\n  %v (%s) read %v wrote %v", a, map[bool]string{true: "committed", false: "aborted"}[a.committed], a.reads, a.writes)
		}
		return fmt.Errorf("cycle of %d attempts, each ordered before the next:%s", len(cyc), b.String())
	}
	return nil
}

// cycle returns the nodes of a cycle of the graph, in edge order, or nil.
func cycle(edges [][]int) []int {
	state := make([]byte, len(edges)) // 0 unseen, 1 on the path, 2 done
	var path []int
	var visit func(u int) []int
	visit = func(u int) []int {
		switch state[u] {
		case 1:
			return path[slices.Index(path, u):]
		case 2:
			return nil
		}
		state[u], path = 1, append(path, u)
		for _, v := range edges[u] {
			if c := visit(v); c != nil {
				return c
			}
		}
		state[u], path = 2, path[:len(path)-1]
		return nil
	}
	for u := range edges {
		if c := visit(u); c != nil {
			return c
		}
	}
	return nil
}

// check fails t with the checker's finding. t's name carries the seed, so
// the message is the command that replays it.
func check(t *testing.T, h *History) {
	t.Helper()
	if err := h.Check(); err != nil {
		t.Fatalf("%v\nreplay: go test -run '%s' ./internal/stm", err, t.Name())
	}
}

// runShape records one history of s on a fresh runtime and checks it.
func runShape(t *testing.T, cfg Config, s shape, workers, txs int, seed int64) *History {
	t.Helper()
	var h History
	if err := h.record(onRuntime(New(cfg)), newCells(s.cells), s, workers, txs, seed); err != nil {
		t.Fatal(err)
	}
	check(t, &h)
	return &h
}

// parse builds a history from the checker's own notation: a line per
// attempt, its name ("w1/t0#2"), "aborted" unless it committed, then what
// it read ("x0=init", "x1=w0/t3#0") and the cells it wrote ("+x0"). final
// lists the cells' values after the run in the same notation.
func parse(final string, lines ...string) *History {
	h := &History{}
	version := func(tok string) (x access) { // "x0=w1/t0#2"; "x0=init" and "x0" are 0
		var a attempt
		if _, err := fmt.Sscanf(tok, "x%d=w%d/t%d#%d", &x.c, &a.w, &a.seq, &a.n); err == nil {
			x.v = a.val()
		}
		return x
	}
	for _, l := range lines {
		f := strings.Fields(l)
		a := &attempt{committed: true}
		fmt.Sscanf(f[0], "w%d/t%d#%d", &a.w, &a.seq, &a.n)
		for _, tok := range f[1:] {
			switch x := version(strings.TrimPrefix(tok, "+")); {
			case tok == "aborted":
				a.committed = false
			case tok[0] == '+':
				a.put(x.c)
			default:
				a.saw(x.c, x.v)
			}
		}
		for len(h.workers) <= a.w {
			h.workers = append(h.workers, nil)
		}
		h.workers[a.w] = append(h.workers[a.w], a)
	}
	for _, x := range strings.Fields(final) {
		h.final = append(h.final, version(x).v)
	}
	return h
}

// TestHistoryChecker feeds the checker one hand-built history per anomaly,
// each of which it must reject with its named reason, and one serializable
// history with an aborted attempt, which it must pass. A read of a value
// never written is TestFindSerialOrderRejectsBadHistory's.
func TestHistoryChecker(t *testing.T) {
	pair := "w0/t0#0 x0=init x1=init +x0 +x1" // commits x0 and x1 together
	for _, tc := range []struct {
		name, want, final string
		attempts          []string
	}{
		{"lost update", "lost update", "x0=w1/t0#0",
			[]string{"w0/t0#0 x0=init +x0", "w1/t0#0 x0=init +x0"}},
		{"write skew", "cycle of 2", "x0=w0/t0#0 x1=w1/t0#0",
			[]string{"w0/t0#0 x0=init x1=init +x0", "w1/t0#0 x0=init x1=init +x1"}},
		{"fractured read-only read", "cycle of 2", "x0=w0/t0#0 x1=w0/t0#0",
			[]string{pair, "w1/t0#0 x0=w0/t0#0 x1=init"}},
		{"doomed attempt read half a commit", "cycle of 2", "x0=w0/t0#0 x1=w0/t0#0",
			[]string{pair, "w1/t0#0 aborted x0=init x1=w0/t0#0 +x0"}},
		{"dirty read", "dirty read", "x0=init",
			[]string{"w0/t0#0 aborted x0=init +x0", "w1/t0#0 x0=w0/t0#0"}},
		{"session order inverted", "cycle of 2", "x0=w0/t0#0 x1=w0/t1#0",
			[]string{"w0/t0#0 x0=init +x0", "w0/t1#0 x0=init x1=init +x1"}},
		{"blind write", "blind write", "x0=w0/t0#0",
			[]string{"w0/t0#0 +x0"}},
		{"stale final value", "not the end of its chain", "x0=init",
			[]string{"w0/t0#0 x0=init +x0"}},
		{"serializable with an abort", "", "x0=w1/t0#1",
			[]string{"w0/t0#0 x0=init +x0", "w1/t0#0 aborted x0=init +x0", "w1/t0#1 x0=w0/t0#0 +x0", "w0/t1#0 x0=w1/t0#1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(tc.final, tc.attempts...).Check()
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("Check() = %v, want %q", err, tc.want)
			}
			t.Log(err)
		})
	}
}

// TestFindSerialOrderRejectsBadHistory: Check must find no serial order for
// a history whose second transaction saw x0 after the first one's commit and
// x1 holding a value nobody ever wrote.
func TestFindSerialOrderRejectsBadHistory(t *testing.T) { rejectsBadHistory(t, nil) }

// rejectsBadHistory checks that Check rejects the history above, with
// h.shardOf set to shardOf.
func rejectsBadHistory(t *testing.T, shardOf func(c int) int) {
	h := parse("x0=w0/t0#0 x1=w1/t0#0", "w0/t0#0 x0=init x1=init +x0", "w1/t0#0 x0=w0/t0#0 x1=w3/t9#0 +x1")
	h.shardOf = shardOf
	if err := h.Check(); err == nil || !strings.Contains(err.Error(), "never written") {
		t.Fatalf("Check() = %v, want a read of a value never written", err)
	}
}

// TestHistorySwapCrossedLiveness: two blocks each hold the lock the other
// wants next, one begun under the first manager and one after a swap to the
// second. BackoffCM and SuicideCM publish no owner and the other four do,
// so the pairs cover blind and publishing holders on either side. Both
// blocks must commit within TestHistoryLiveness's bound for the second
// manager, and the history must check. It runs before the recorded drivers:
// a pair that deadlocks fails the run in seconds.
func TestHistorySwapCrossedLiveness(t *testing.T) {
	cms := []ContentionManager{SuicideCM{}, BackoffCM{}, GreedyCM{}, TwoPhaseCM{}, KarmaCM{}, PolkaCM{}}
	for _, from := range []ContentionManager{BackoffCM{}, KarmaCM{}} {
		for _, to := range cms {
			t.Run(from.Name()+"->"+to.Name(), func(t *testing.T) {
				rt, cells := New(Config{CM: from}), newCells(2)
				h := History{workers: make([][]*attempt, 2)}
				var held sync.WaitGroup
				held.Add(2)
				firstBegun, done := make(chan struct{}), make(chan error, 2)
				cross := func(w int) {
					mine, theirs := w, 1-w
					done <- rt.Atomic(func(tx *Tx) error {
						a := &attempt{w: w, n: tx.Attempt()}
						h.workers[w] = append(h.workers[w], a)
						a.saw(mine, cells[mine].read(tx))
						cells[mine].write(tx, a.put(mine))
						if a.n == 0 {
							if w == 0 {
								close(firstBegun)
							}
							held.Done()
							held.Wait() // both locks are held
						}
						a.saw(theirs, cells[theirs].read(tx))
						cells[theirs].write(tx, a.put(theirs))
						return nil
					})
				}
				go cross(0)
				<-firstBegun
				rt.SetContentionManager(to)
				go cross(1)
				for range 2 {
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(stuck / 10): // the pair takes microseconds
						// Deadlocked blocks spin on through every later test:
						// end the binary here, with their stacks.
						panic(fmt.Sprintf("%s: crossed blocks unfinished after %v", t.Name(), stuck/10))
					}
				}
				bound := attemptBound["tl2/"+to.Name()]
				for w, log := range h.workers {
					if len(log) > bound {
						t.Fatalf("worker %d took %d attempts, bound %d", w, len(log), bound)
					}
					log[len(log)-1].committed = true
				}
				h.final = []uint64{cells[0].peek(), cells[1].peek()}
				check(t, &h)
			})
		}
	}
}

// TestHistory is the base driver: the hot mix on each engine under the
// default contention manager, one subtest per seed. A hundred seeds take
// about a second per engine on two processors, which is what it takes to
// meet a lost update that needs a preemption inside a few instructions of
// Tx.read (the extension re-sample) several times over.
func TestHistory(t *testing.T) {
	seeds := int64(100)
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	for _, algo := range []Algorithm{TL2, NOrec} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", algo, seed), func(t *testing.T) {
				runShape(t, Config{Algorithm: algo}, hotMix, 4, 2000, seed)
			})
		}
	}
}

// diffMix is wide snapshots and one write: every transaction of the
// differential and switch-point drivers reads up to all three cells.
var diffMix = shape{cells: 3, reads: 3, writes: 1}

func TestDifferentialSerializability(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String()+"/lazy=true", func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				runShape(t, Config{Algorithm: algo}, diffMix, 4, 50, seed)
			}
		})
	}
}

// onEngines records one history of s on each engine. The former bespoke
// invariant tests below are each a shape aimed at its anomaly: two cells
// read and one written (write skew), single-cell read-modify-writes (lost
// updates), pairs written together under audits (torn snapshots).
func onEngines(t *testing.T, s shape, workers, txs int) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) { runShape(t, Config{Algorithm: algo}, s, workers, txs, 1) })
	}
}

func TestNoWriteSkew(t *testing.T) {
	onEngines(t, shape{cells: 2, reads: 2, writes: 1, yield: true}, 2, 400)
}

func TestNoLostUpdateAcrossEngines(t *testing.T) {
	onEngines(t, shape{cells: 8, reads: 1, writes: 1}, 6, 150)
}

func TestChainInvariant(t *testing.T) {
	onEngines(t, shape{cells: 8, reads: 2, writes: 2, audits: 40, yield: true}, 4, 300)
}

// TestTL2NoLostIncrements is the regression for the snapshot-extension hole
// in Tx.read (a read sampled before a concurrent commit and returned after
// an extend() that covers it, then committed quietly): one second of
// increments on TL2. It needs two processors to bite.
func TestTL2NoLostIncrements(t *testing.T) {
	if testing.Short() {
		t.Skip("stress loop")
	}
	t.Run("lazy-clock", func(t *testing.T) {
		for seed, deadline := int64(0), time.Now().Add(time.Second); time.Now().Before(deadline); seed++ {
			runShape(t, Config{Algorithm: TL2}, shape{cells: 4, reads: 1, writes: 1}, 4, 2000, seed)
		}
	})
}

// TestHistoryLiveness runs the hot mix on each engine under each contention
// manager: every worker must finish (record's watchdog), and no commit may
// take more attempts than its cell's pinned bound.
func TestHistoryLiveness(t *testing.T) {
	cms := []ContentionManager{SuicideCM{}, BackoffCM{}, GreedyCM{}, TwoPhaseCM{}, KarmaCM{}, PolkaCM{}}
	for _, algo := range []Algorithm{TL2, NOrec} {
		for _, cm := range cms {
			cell := algo.String() + "/" + cm.Name()
			t.Run(cell, func(t *testing.T) {
				h := runShape(t, Config{Algorithm: algo, CM: cm}, hotMix, 4, 2000, 1)
				most := 0
				for _, log := range h.workers {
					for _, a := range log {
						if a.committed {
							most = max(most, a.n+1)
						}
					}
				}
				t.Logf("most attempts per commit: %d", most)
				if most > attemptBound[cell] {
					t.Fatalf("a commit took %d attempts, bound %d", most, attemptBound[cell])
				}
			})
		}
	}
}

// attemptBound is the most attempts one commit of TestHistoryLiveness may
// take, four times the worst seen in 50 runs at -cpu 1,2,4, with and
// without -race, on a 2-vCPU Xeon VM (go1.24.0): on TL2 suicide 5829,
// backoff 89, greedy 3840, two-phase 4142, karma 17, polka 17; on NOrec,
// which consults the manager only to pace retries, 10 under any of them.
// Re-measured the same way once BackoffCM and SuicideCM stopped publishing
// owners, bounds unchanged: TL2 suicide 4396, backoff 21, greedy 2974,
// two-phase 3561, karma 20, polka 19; NOrec 12.
// The large ones are a tail, not a typical commit (the median is 4 to 15
// attempts under every manager). It appears with more processors than
// cores, and none at one processor: an attacker that loses to a lock owner
// whose thread is descheduled retries until the owner runs again.
var attemptBound = map[string]int{
	"tl2/suicide": 24000, "tl2/backoff": 400, "tl2/greedy": 16000,
	"tl2/two-phase": 17000, "tl2/karma": 80, "tl2/polka": 80,
	"norec/suicide": 40, "norec/backoff": 40, "norec/greedy": 40,
	"norec/two-phase": 40, "norec/karma": 40, "norec/polka": 40,
}

// Record records the hot mix on rt over the Vars vs, which must be zero or
// hold values an earlier Record wrote: the form of the workload a durable
// runtime logs.
func (h *History) Record(rt *Runtime, vs []*Var[uint64], workers, txs int, seed int64) error {
	cells := make([]cell, len(vs))
	for i, v := range vs {
		cells[i] = cellOf[uint64]{v, same, same}
	}
	s := hotMix
	s.cells = len(vs)
	return h.record(onRuntime(rt), cells, s, workers, txs, seed)
}

// Cut adds a read-only attempt that read vals[i] from cell i and began after
// the commits whose values are listed in after: a state recovered from a log.
func (h *History) Cut(vals, after []uint64) {
	a := &attempt{w: len(h.workers), after: after}
	for c, v := range vals {
		a.saw(c, v)
	}
	h.workers = append(h.workers, []*attempt{a})
}
