package wal

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"rubic/internal/stm"
)

// Registry binds durable IDs to typed setters so a recovered state image
// can be loaded back into a freshly built Runtime's Vars. The recovery
// contract is three-phase and the workload drives it (see DurableState):
// re-run the deterministic Setup to recreate the initial state and its
// Vars, register every durable Var under the same stable ID as last time,
// then ApplyTo replays the recovered values on top — after which the
// workload's Verify must pass again.
type Registry struct {
	mu      sync.Mutex
	setters map[uint64]func(any) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{setters: make(map[uint64]func(any) error)}
}

// Register binds id to a raw setter. Most callers want RegisterVar.
func (r *Registry) Register(id uint64, set func(any) error) error {
	if id == 0 {
		return fmt.Errorf("wal: durable ID must be nonzero")
	}
	if set == nil {
		return fmt.Errorf("wal: nil setter for durable ID %d", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.setters[id]; dup {
		return fmt.Errorf("wal: duplicate durable ID %d", id)
	}
	r.setters[id] = set
	return nil
}

// Len reports the number of registered IDs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.setters)
}

// codecFor reports whether T is one of the codec's element types — exactly
// the types decodeValue produces, so exactly those whose recovered value the
// typed setter's x.(T) accepts. A named type with a codec type underneath
// would encode, and then fail that assertion after a crash; an interface
// type has no encoding of its own.
func codecFor[T any]() bool {
	var zero T
	switch any(zero).(type) {
	case int, int64, uint64, float64, bool, string, []byte:
		return true
	}
	return false
}

// RegisterVar marks v durable under id and registers its typed setter. The
// decision is made from T, not from the value v happens to hold: an element
// type recovery cannot restore fails here, at registration, never later.
func RegisterVar[T any](r *Registry, id uint64, v *stm.Var[T]) error {
	if v == nil {
		return fmt.Errorf("wal: nil Var for durable ID %d", id)
	}
	if !codecFor[T]() {
		return fmt.Errorf("wal: durable ID %d: %w (%v)", id, errUnsupportedType, reflect.TypeFor[T]())
	}
	if err := r.Register(id, func(x any) error {
		t, ok := x.(T)
		if !ok {
			return fmt.Errorf("wal: durable ID %d: recovered %T, Var holds %T", id, x, t)
		}
		v.Set(t)
		return nil
	}); err != nil {
		return err
	}
	v.MarkDurable(id)
	return nil
}

// ApplyTo loads the recovered state image into the registry's Vars. Every
// recovered ID must be registered and type-compatible; an unknown ID means
// the workload's registration drifted from the log and is an error — the
// recovered prefix would silently lose that location otherwise. Call during
// the quiescent recovery phase, before transactions start.
func (l *Log) ApplyTo(r *Registry) error {
	ids := make([]uint64, 0, len(l.state))
	for id := range l.state {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		set, ok := r.setters[id]
		if !ok {
			return fmt.Errorf("wal: recovered durable ID %d has no registration", id)
		}
		v, err := decodeValue(l.state[id])
		if err != nil {
			return fmt.Errorf("wal: durable ID %d: %w", id, err)
		}
		if v == nil {
			return fmt.Errorf("wal: durable ID %d: null value in recovered state", id)
		}
		if err := set(v); err != nil {
			return err
		}
	}
	return nil
}

// DurableState is implemented by workloads and services whose transactional
// state can be made durable. The agent calls RegisterDurable once after
// Setup (assign stable IDs, mark Vars durable), and Rebase after a non-empty
// recovery has been applied (re-anchor any in-memory audit counters — e.g. a
// running total Verify checks against — to the recovered var state).
type DurableState interface {
	RegisterDurable(reg *Registry) error
	Rebase() error
}
