// Package fault is the failure-domain toolkit behind lplserve's
// robustness layer. It has two halves:
//
// Quarantine tracks containment failures — engine panics, watchdog
// kills — keyed by instance identity (graph fingerprint + options
// hash). After Threshold failures inside one TTL window the key trips:
// subsequent identical requests are answered by a cheap Check instead
// of re-running the solve that just crashed, turning a crash loop into
// a one-line statistic. Tripped keys expire after the TTL and get a
// clean slate. The tracker is a bounded, sharded LRU (internal/lru, the
// store under the solve cache and the intern store too), so recording a
// failure never serializes the serving tier and its stats are one
// consistent snapshot.
//
// Injection provides deterministic, seeded fault injection for chaos
// testing: production code calls Visit at named sites (see the Site*
// constants), which is a single atomic load — nil — when injection is
// disabled. When a Plan is Enabled, each visit draws a seeded hash of
// (seed, site, per-site visit number) and, at the configured rate,
// executes one of the fault kinds in place: panic (contained by the
// solver's recover boundaries), a context-respecting delay, a
// context-IGNORING stall (simulating a non-cooperative engine, which is
// what the stuck-solve watchdog exists to catch), or a transient
// allocation spike. The decision sequence per site is a pure function
// of the seed, so a chaos run's fault count is reproducible.
package fault

import (
	"sync"
	"time"

	"lpltsp/internal/lru"
)

// Defaults for Config's zero fields.
const (
	DefaultThreshold = 3
	DefaultTTL       = 5 * time.Minute
	DefaultCapacity  = 4096
)

// Config tunes a Quarantine. The zero value means defaults everywhere.
type Config struct {
	// Threshold is K: containment failures for one key, each within TTL
	// of the previous, before the key is quarantined. Default 3.
	Threshold int
	// TTL is both the failure-memory window (failures further apart than
	// TTL do not accumulate toward Threshold) and the sentence length (a
	// tripped key is released, with a clean slate, TTL after it tripped).
	// Default 5 minutes.
	TTL time.Duration
	// Capacity bounds tracked keys across all shards; beyond it the
	// least-recently-failing key is evicted. Default 4096.
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	return c
}

// tripRingSize bounds the recent-trip ring consulted by TripsWithin;
// more trips than this inside one readiness window is saturated anyway.
const tripRingSize = 64

// Quarantine is the poison-instance tracker. Create with NewQuarantine;
// the zero value is not usable. All methods are safe for concurrent use.
type Quarantine struct {
	cfg Config
	lru *lru.Sharded[*qEntry, qCounters] // LRU by last recorded failure
	now func() time.Time                 // test hook; time.Now in production

	tripMu    sync.Mutex
	tripTimes []time.Time // ring of recent trip instants
	tripNext  int
}

// qCounters are one shard's, mutated under its lock.
type qCounters struct{ records, trips, fastFails, expired, evictions int64 }

// qEntry is one tracked key. tripped is zero until the key quarantines.
type qEntry struct {
	failures int
	lastFail time.Time
	tripped  time.Time
	reason   string
}

// NewQuarantine builds a tracker. The zero Config takes every default.
func NewQuarantine(cfg Config) *Quarantine {
	cfg = cfg.withDefaults()
	return &Quarantine{cfg: cfg, lru: lru.New[*qEntry, qCounters](cfg.Capacity), now: time.Now}
}

// Record notes one containment failure for key and reports whether this
// failure is the one that tripped the quarantine. reason is surfaced to
// clients fast-failed by Check (the last recorded reason wins).
func (q *Quarantine) Record(key, reason string) bool {
	sh := q.lru.Shard(key)
	now := q.now()
	sh.Lock()
	defer sh.Unlock()
	sh.Counters.records++
	e, ok := sh.Get(key)
	if !ok {
		e = &qEntry{}
		sh.Counters.evictions += int64(sh.Add(key, e))
	} else if now.Sub(e.lastFail) > q.cfg.TTL {
		// Failures this far apart are not a crash loop: restart the
		// count (and any stale trip) from a clean slate.
		e.failures, e.tripped = 0, time.Time{}
	}
	e.failures++
	e.lastFail = now
	e.reason = reason
	if e.failures >= q.cfg.Threshold && e.tripped.IsZero() {
		e.tripped = now
		sh.Counters.trips++
		q.noteTrip(now)
		return true
	}
	return false
}

// Check reports whether key is currently quarantined, returning the last
// failure reason when it is. An expired sentence is cleared on the spot
// (the key gets a clean slate), and every positive answer counts as one
// fast-fail in the stats.
func (q *Quarantine) Check(key string) (reason string, quarantined bool) {
	sh := q.lru.Shard(key)
	now := q.now()
	sh.Lock()
	defer sh.Unlock()
	e, ok := sh.Peek(key)
	if !ok || e.tripped.IsZero() {
		return "", false
	}
	if now.Sub(e.tripped) > q.cfg.TTL {
		sh.Remove(key)
		sh.Counters.expired++
		return "", false
	}
	sh.Counters.fastFails++
	return e.reason, true
}

// noteTrip appends to the bounded recent-trip ring.
func (q *Quarantine) noteTrip(now time.Time) {
	q.tripMu.Lock()
	defer q.tripMu.Unlock()
	if len(q.tripTimes) < tripRingSize {
		q.tripTimes = append(q.tripTimes, now)
		return
	}
	q.tripTimes[q.tripNext] = now
	q.tripNext = (q.tripNext + 1) % tripRingSize
}

// TripsWithin counts quarantine trips in the trailing window — the
// signal /readyz uses for "this instance keeps tripping, drain it".
func (q *Quarantine) TripsWithin(window time.Duration) int {
	cutoff := q.now().Add(-window)
	q.tripMu.Lock()
	defer q.tripMu.Unlock()
	n := 0
	for _, t := range q.tripTimes {
		if t.After(cutoff) {
			n++
		}
	}
	return n
}

// Stats is a consistent snapshot of a Quarantine's counters.
type Stats struct {
	// Threshold and TTLSeconds echo the configuration.
	Threshold  int
	TTLSeconds float64
	// Tracked keys currently held; Active of them are tripped and not yet
	// expired.
	Tracked, Active int64
	// Records counts failures recorded; Trips counts keys that crossed
	// the threshold; FastFails counts requests turned away by Check;
	// Expired counts sentences served out; Evictions counts keys dropped
	// by the capacity bound.
	Records, Trips, FastFails, Expired, Evictions int64
}

// Stats reads every counter under one all-shards snapshot, so it is
// internally consistent (same discipline as the solve cache).
func (q *Quarantine) Stats() Stats {
	now := q.now()
	st := Stats{Threshold: q.cfg.Threshold, TTLSeconds: q.cfg.TTL.Seconds()}
	q.lru.Snapshot(func(sh *lru.Shard[*qEntry, qCounters]) {
		st.Tracked += int64(sh.Len())
		for _, e := range sh.All() {
			if !e.tripped.IsZero() && now.Sub(e.tripped) <= q.cfg.TTL {
				st.Active++
			}
		}
		st.Records += sh.Counters.records
		st.Trips += sh.Counters.trips
		st.FastFails += sh.Counters.fastFails
		st.Expired += sh.Counters.expired
		st.Evictions += sh.Counters.evictions
	})
	return st
}
