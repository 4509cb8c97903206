// Package memo is the one memoization primitive behind every
// process-wide cache: a bounded LRU with per-key singleflight. Hits
// return on the caller's goroutine; concurrent misses share one flight,
// whose work runs detached from any one caller until the last waiting
// caller leaves; only successful values are stored. Do documents the
// contract.
package memo

import (
	"context"
	"sync"
)

// DefaultMax is the capacity New selects for max <= 0.
const DefaultMax = 1024

// Inline is the launch hook for work cheap enough to run on the
// launching caller's goroutine; concurrent callers still share it.
func Inline(run func()) error {
	run()
	return nil
}

// Outcome says how Do obtained its value.
type Outcome uint8

const (
	Miss       Outcome = iota // this caller launched the flight that computed it
	Hit                       // it was already stored
	Coalesced                 // this caller waited on a flight another caller launched
	Relaunched                // as Miss, after first waiting on a flight that never launched
)

// Stats is a snapshot of a Group's size and counters. Hits and Misses
// count client lookups (Get, Lookup and Do); Add counts nothing.
type Stats struct {
	Size, Max               int
	Hits, Misses, Evictions uint64
}

// Group is a bounded LRU of values keyed by K, with one flight per key
// for concurrent misses. Safe for concurrent use. Create one with New.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	root    entry[K, V] // sentinel of the recency ring; root.next is the most recent
	items   map[K]*entry[K, V]
	flights map[K]*flight[V]

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// flight is one in-progress computation. val and err are written once,
// under the Group's lock, before done is closed; waiters read them only
// after <-done.
type flight[V any] struct {
	done    chan struct{}
	cancel  context.CancelFunc // ends the work's context
	refs    int                // callers waiting on the flight
	dropped bool               // launch failed: waiters rejoin
	val     V
	err     error
}

// New returns a Group holding at most max values; max <= 0 selects
// DefaultMax.
func New[K comparable, V any](max int) *Group[K, V] {
	if max <= 0 {
		max = DefaultMax
	}
	g := &Group[K, V]{max: max, items: make(map[K]*entry[K, V]), flights: make(map[K]*flight[V])}
	g.root.prev, g.root.next = &g.root, &g.root
	return g
}

// Reset drops every stored value. Flights in progress still deliver to
// their callers but store nothing. Counters keep counting.
func (g *Group[K, V]) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.root.prev, g.root.next = &g.root, &g.root
	clear(g.items)
	clear(g.flights)
}

// Get is Do's hit path on its own, for callers whose miss path builds
// closures: a hit is counted, refreshed and returned exactly as Do would
// return it. A miss is not counted; the caller follows it with Do, which
// counts it, so each client lookup counts once.
func (g *Group[K, V]) Get(key K) (V, bool) {
	return g.get(key, false)
}

// Lookup is Get for a caller that fills a miss itself, with Add, rather
// than through Do: it counts the miss too.
func (g *Group[K, V]) Lookup(key K) (V, bool) {
	return g.get(key, true)
}

func (g *Group[K, V]) get(key K, countMiss bool) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.items[key]
	if !ok {
		if countMiss {
			g.misses++
		}
		var zero V
		return zero, false
	}
	g.hits++
	g.touch(e)
	return e.val, true
}

// Add stores a value directly (a preload), refreshing an existing key.
func (g *Group[K, V]) Add(key K, val V) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.store(key, val)
}

// Stats snapshots the size and counters.
func (g *Group[K, V]) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{Size: len(g.items), Max: g.max, Hits: g.hits, Misses: g.misses, Evictions: g.evictions}
}

// Do returns the value for key: stored (Hit), computed by a flight this
// caller launched (Miss, or Relaunched if it first waited on a flight
// that never launched), or obtained after waiting on another caller's
// flight (Coalesced). It counts one hit or one miss per call, however
// many flights it joins. The caller
// starting a flight passes run to launch, which must call it once (go
// run(), a pool submission) or return an error and never call it; the
// error goes to this caller, and callers waiting on that flight rejoin.
// work runs under a context that ends when the last waiting caller
// leaves. Only a successful value from a flight still owning its key
// is stored; errors are returned and never stored.
func (g *Group[K, V]) Do(ctx context.Context, key K, launch func(run func()) error, work func(context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	g.mu.Lock()
	for first := true; ; first = false {
		if e, ok := g.items[key]; ok {
			how := Coalesced // stored meanwhile, while this caller waited
			if first {
				g.hits++
				how = Hit
			}
			g.touch(e)
			g.mu.Unlock()
			return e.val, how, nil
		}
		if first {
			g.misses++
		}
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return zero, Miss, err
		}
		f, joined := g.flights[key]
		var run func()
		if !joined {
			fctx, cancel := context.WithCancel(context.Background())
			nf := &flight[V]{done: make(chan struct{}), cancel: cancel}
			run = func() {
				val, err := work(fctx)
				g.finish(key, nf, val, err, false)
			}
			f, g.flights[key] = nf, nf
		}
		f.refs++
		g.mu.Unlock()
		if !joined {
			if err := launch(run); err != nil {
				g.finish(key, f, zero, err, true)
				return zero, Miss, err
			}
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			g.leave(key, f)
			return zero, Miss, ctx.Err()
		}
		switch {
		case f.dropped:
		case f.err != nil:
			return zero, Miss, f.err
		case joined:
			return f.val, Coalesced, nil
		case first:
			return f.val, Miss, nil
		default:
			return f.val, Relaunched, nil
		}
		// The flight this caller joined never launched: rejoin. Another
		// caller may have stored the value or launched a new flight
		// meanwhile; otherwise this caller launches one.
		g.mu.Lock()
	}
}

// finish ends a flight. It stores the value only on success and only
// if the flight still owns its key, which an abandoned flight, a
// dropped one or one that outlived Reset does not.
func (g *Group[K, V]) finish(key K, f *flight[V], val V, err error, dropped bool) {
	g.mu.Lock()
	if g.flights[key] == f {
		delete(g.flights, key)
		if err == nil && !dropped {
			g.store(key, val)
		}
	}
	f.val, f.err, f.dropped = val, err, dropped
	g.mu.Unlock()
	f.cancel()
	close(f.done)
}

// leave drops one waiting caller. The last one out of an unfinished
// flight abandons it: its work's context is cancelled and the key is
// freed for a fresh flight. (A finished flight no longer owns its key,
// and cancelling its context again is a no-op.)
func (g *Group[K, V]) leave(key K, f *flight[V]) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.refs--
	if f.refs > 0 {
		return
	}
	f.cancel()
	if g.flights[key] == f {
		delete(g.flights, key)
	}
}

// store inserts or refreshes a value as the most recent, evicting the
// least recent past capacity. g.mu must be held.
func (g *Group[K, V]) store(key K, val V) {
	if e, ok := g.items[key]; ok {
		e.val = val
		g.touch(e)
		return
	}
	e := &entry[K, V]{key: key, val: val}
	g.items[key] = e
	g.link(e)
	if len(g.items) > g.max {
		old := g.root.prev
		g.unlink(old)
		delete(g.items, old.key)
		g.evictions++
	}
}

// touch makes e the most recent. g.mu must be held.
func (g *Group[K, V]) touch(e *entry[K, V]) {
	g.unlink(e)
	g.link(e)
}

func (g *Group[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &g.root, g.root.next
	e.prev.next, e.next.prev = e, e
}

func (g *Group[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
