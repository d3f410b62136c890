package tsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Objective selects what an Engine optimizes over the instance.
type Objective int

const (
	// ObjectivePath asks for a minimum-weight Hamiltonian path with free
	// endpoints — the objective the labeling reduction needs (Theorem 2).
	ObjectivePath Objective = iota
	// ObjectiveCycle asks for a minimum-weight Hamiltonian cycle.
	ObjectiveCycle
)

func (o Objective) String() string {
	switch o {
	case ObjectivePath:
		return "path"
	case ObjectiveCycle:
		return "cycle"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ErrUnsupportedObjective is returned by engines that do not implement the
// requested objective (most heuristics are path-only).
var ErrUnsupportedObjective = errors.New("tsp: objective not supported by engine")

// Stats describes how an engine run ended.
type Stats struct {
	// Cost is the objective value of the returned tour.
	Cost int64
	// Optimal reports that the tour is provably optimal (exact engine ran
	// to completion).
	Optimal bool
	// Truncated reports that the engine stopped early because its context
	// was cancelled or its deadline expired, returning its best-so-far
	// (anytime) result rather than a finished computation.
	Truncated bool
	// Nodes is an engine-specific work counter: branch-and-bound nodes
	// expanded, chains completed, restarts finished. Zero when an engine
	// does not track one.
	Nodes int64
}

// Engine is a pluggable path/cycle TSP solver. Implementations must honor
// context cancellation cooperatively: after ctx is done an engine returns
// promptly, either with its best-so-far tour (Stats.Truncated set) or with
// ctx.Err() when it has no incumbent to offer. Engines must be safe for
// concurrent use by multiple goroutines on distinct or shared instances
// (instances are read-only during solving), which is what lets the core
// portfolio race them.
type Engine interface {
	// Name returns the registry name of the engine.
	Name() Algorithm
	// Solve computes a tour of ins for the given objective.
	Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error)
}

// EngineFactory builds an engine configured by opts (which may be nil).
type EngineFactory func(opts *SolveOptions) Engine

var (
	regMu    sync.RWMutex
	registry = map[Algorithm]EngineFactory{}
	regOrder []Algorithm
)

// Register adds an engine factory under the given name. It panics on an
// empty name, a nil factory, or a duplicate registration — engine names are
// the dispatch and CLI surface, so collisions are programmer errors.
func Register(name Algorithm, f EngineFactory) {
	if name == "" {
		panic("tsp: Register with empty algorithm name")
	}
	if f == nil {
		panic("tsp: Register with nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("tsp: Register called twice for %q", name))
	}
	registry[name] = f
	regOrder = append(regOrder, name)
}

// Lookup returns the factory registered under name.
func Lookup(name Algorithm) (EngineFactory, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tsp: unknown algorithm %q", name)
	}
	return f, nil
}

// New instantiates the named engine with the given options (opts may be
// nil for defaults).
func New(name Algorithm, opts *SolveOptions) (Engine, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(opts), nil
}

// Algorithms lists all registered engine names in registration order, which
// is kept stable (exact first, constructions last).
func Algorithms() []Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Algorithm(nil), regOrder...)
}

// canceled reports whether ctx is already done, without blocking. Engines
// use it as their cooperative cancellation checkpoint.
func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

func init() {
	Register(AlgoExact, func(o *SolveOptions) Engine { return exactEngine{chained(o)} })
	Register(AlgoHeldKarp, func(*SolveOptions) Engine { return heldKarpEngine{} })
	Register(AlgoBnB, func(o *SolveOptions) Engine { return bnbEngine{chained(o)} })
	Register(AlgoChristofides, func(*SolveOptions) Engine { return christofidesEngine{} })
	Register(AlgoChained, func(o *SolveOptions) Engine { return chainedEngine{chained(o)} })
	Register(AlgoTwoOpt, func(*SolveOptions) Engine { return twoOptEngine{} })
	Register(AlgoThreeOpt, func(*SolveOptions) Engine { return threeOptEngine{} })
	Register(AlgoNearestNeighbor, func(*SolveOptions) Engine { return nnEngine{} })
	Register(AlgoGreedyEdge, func(*SolveOptions) Engine { return greedyEngine{} })
}

func chained(o *SolveOptions) *ChainedOptions {
	if o == nil {
		return nil
	}
	return o.Chained
}

// exactEngine solves the path objective with Held–Karp up to HeldKarpMaxN
// and branch and bound beyond it; the path branch is anytime (a
// deadline yields an incumbent instead of an error). The cycle objective
// is Held–Karp only — there is no cycle branch and bound — so past
// HeldKarpMaxN or on cancellation it errors per the Engine contract
// (no incumbent to surrender).
type exactEngine struct{ chained *ChainedOptions }

func (exactEngine) Name() Algorithm { return AlgoExact }

func (e exactEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj == ObjectiveCycle {
		t, c, err := heldKarp(ctx, ins, -1, -1, true)
		if err != nil {
			return nil, Stats{}, err
		}
		return t, Stats{Cost: c, Optimal: true}, nil
	}
	if ins.n <= HeldKarpMaxN {
		t, st, err := heldKarpEngine{}.Solve(ctx, ins, obj)
		if err != nil && ctx.Err() != nil {
			// The DP was cancelled before completing. Keep the exact
			// engine uniformly anytime across instance sizes (its larger
			// branch-and-bound regime yields an incumbent on deadline) by
			// surrendering a cheap construction tour instead of failing.
			t = NearestNeighborFrom(ins, 0)
			return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
		}
		return t, st, err
	}
	return bnbEngine{e.chained}.Solve(ctx, ins, obj)
}

type heldKarpEngine struct{}

func (heldKarpEngine) Name() Algorithm { return AlgoHeldKarp }

func (heldKarpEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	cycle := obj == ObjectiveCycle
	t, c, err := heldKarp(ctx, ins, -1, -1, cycle)
	if err != nil {
		return nil, Stats{}, err
	}
	return t, Stats{Cost: c, Optimal: true}, nil
}

type bnbEngine struct{ chained *ChainedOptions }

func (bnbEngine) Name() Algorithm { return AlgoBnB }

func (e bnbEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoBnB, obj)
	}
	return branchAndBoundPath(ctx, ins, e.chained)
}

type christofidesEngine struct{}

func (christofidesEngine) Name() Algorithm { return AlgoChristofides }

func (christofidesEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	var (
		t   Tour
		c   int64
		err error
	)
	if obj == ObjectiveCycle {
		t, c, err = christofidesCycle(ctx, ins)
	} else {
		t, c, err = christofidesPath(ctx, ins)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	return t, Stats{Cost: c}, nil
}

type chainedEngine struct{ opts *ChainedOptions }

func (chainedEngine) Name() Algorithm { return AlgoChained }

func (e chainedEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoChained, obj)
	}
	t, c, chains := chainedLocalSearch(ctx, ins, e.opts)
	want := int64(e.opts.defaults().Restarts)
	return t, Stats{Cost: c, Truncated: chains < want, Nodes: chains}, nil
}

type twoOptEngine struct{}

func (twoOptEngine) Name() Algorithm { return AlgoTwoOpt }

func (twoOptEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoTwoOpt, obj)
	}
	if canceled(ctx) {
		t := NearestNeighborFrom(ins, 0)
		return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
	}
	t := GreedyEdgePath(ins)
	_, ok1 := twoOptPath(ctx, ins, t)
	_, ok2 := orOptPath(ctx, ins, t)
	return t, Stats{Cost: ins.PathCost(t), Truncated: !(ok1 && ok2)}, nil
}

// threeOptEngine is the polishing variant: the 2-opt/Or-opt pipeline plus a
// final 3-opt pass (segment exchange and double reversal), the deepest
// local-search neighborhood in the family. O(n³) per sweep — intended for
// moderate n or as a portfolio member under a deadline.
type threeOptEngine struct{}

func (threeOptEngine) Name() Algorithm { return AlgoThreeOpt }

func (threeOptEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoThreeOpt, obj)
	}
	if canceled(ctx) {
		t := NearestNeighborFrom(ins, 0)
		return t, Stats{Cost: ins.PathCost(t), Truncated: true}, nil
	}
	t := GreedyEdgePath(ins)
	_, ok1 := twoOptPath(ctx, ins, t)
	_, ok2 := orOptPath(ctx, ins, t)
	_, ok3 := threeOptPath(ctx, ins, t)
	return t, Stats{Cost: ins.PathCost(t), Truncated: !(ok1 && ok2 && ok3)}, nil
}

type nnEngine struct{}

func (nnEngine) Name() Algorithm { return AlgoNearestNeighbor }

func (nnEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoNearestNeighbor, obj)
	}
	t, c, starts := nearestNeighborBest(ctx, ins)
	return t, Stats{Cost: c, Truncated: starts < int64(ins.n), Nodes: starts}, nil
}

type greedyEngine struct{}

func (greedyEngine) Name() Algorithm { return AlgoGreedyEdge }

func (greedyEngine) Solve(ctx context.Context, ins *Instance, obj Objective) (Tour, Stats, error) {
	if obj != ObjectivePath {
		return nil, Stats{}, fmt.Errorf("%w: %s/%s", ErrUnsupportedObjective, AlgoGreedyEdge, obj)
	}
	t := GreedyEdgePath(ins)
	return t, Stats{Cost: ins.PathCost(t)}, nil
}
