// Package cluster serves several buildings from one deployment: one
// independent System shard per building behind one router. Each shard owns
// its own event store, WAL directory, cache tiers, and occupancy index, so
// shards never contend on a lock: ingest fans out to the owning shards in
// parallel, queries route to the single owning shard, and batch queries are
// split by shard, answered concurrently, and re-merged in input order.
//
// Routing is exact: devices and their neighbors live in the same building,
// so per-shard answers equal a per-building System's. An event routes by its
// access point's building; a device is homed to the shard where it was first
// seen and stays there. A device first seen at an access point no building
// lists is homed by a hash of its ID.
//
// The Cluster implements the locater.Locater service interface, so the HTTP
// layer, benchmarks, and load harness drive a cluster exactly as they drive
// a single System.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"locater"
	"locater/internal/store"
)

// Options configures the router.
type Options struct {
	// Buildings are the per-shard buildings, one per shard (at least one).
	// Their access-point sets must be disjoint. Each shard runs the
	// cluster's Config with Building set to its own.
	Buildings []*locater.Building
}

// Cluster is one System shard per building behind a router. Safe for
// concurrent use: routing state is read-mostly (the device→shard home map
// only grows, under its own RWMutex), and everything else delegates to the
// shards, which synchronize themselves.
type Cluster struct {
	shards []*locater.System

	// apShard routes ingest events by access point.
	apShard map[locater.APID]int
	// mu guards home, the device→shard registry.
	mu   sync.RWMutex
	home map[locater.DeviceID]int
}

// Compile-time checks: the cluster is a full Locater, exposes its
// topology, and merges its shards' quarantine rings.
var (
	_ locater.Locater     = (*Cluster)(nil)
	_ locater.Sharded     = (*Cluster)(nil)
	_ locater.Quarantiner = (*Cluster)(nil)
)

// New assembles an in-memory cluster: one System built from cfg per
// building, shard i serving opts.Buildings[i].
func New(cfg locater.Config, opts Options) (*Cluster, error) {
	return assemble(cfg, opts, func(i int, shardCfg locater.Config) (*locater.System, error) {
		return locater.New(shardCfg)
	})
}

// Open assembles a durable cluster rooted at dir: shard i logs to the
// subdirectory shard-<i> and recovers it independently on startup, so a
// restarted cluster answers exactly as the one that was shut down or
// killed. The device→shard registry is rebuilt from the recovered shards'
// device sets.
func Open(dir string, cfg locater.Config, popts locater.PersistOptions, opts Options) (*Cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating data dir: %w", err)
	}
	c, err := assemble(cfg, opts, func(i int, shardCfg locater.Config) (*locater.System, error) {
		return locater.Open(ShardDir(dir, i), shardCfg, popts)
	})
	if err != nil {
		return nil, err
	}
	// Recovered devices re-home to the shard that persisted them; conflicts
	// (a device recovered on two shards) keep the lowest index, matching
	// first-seen-wins at ingest time.
	for i := len(c.shards) - 1; i >= 0; i-- {
		for _, d := range c.shards[i].Devices() {
			c.home[d] = i
		}
	}
	return c, nil
}

// ShardDir returns the WAL subdirectory of shard i under the cluster's
// data directory.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// assemble checks the buildings' access points are disjoint, then builds
// one shard per building, closing the ones already built if a later one
// fails.
func assemble(cfg locater.Config, opts Options, build func(int, locater.Config) (*locater.System, error)) (*Cluster, error) {
	if len(opts.Buildings) == 0 {
		return nil, fmt.Errorf("cluster: Options.Buildings is empty")
	}
	c := &Cluster{
		shards:  make([]*locater.System, len(opts.Buildings)),
		apShard: make(map[locater.APID]int),
		home:    make(map[locater.DeviceID]int),
	}
	for i, b := range opts.Buildings {
		for _, ap := range b.AccessPoints() {
			if owner, dup := c.apShard[ap]; dup {
				return nil, fmt.Errorf("cluster: access point %s appears in buildings %d and %d (AP sets must be disjoint)", ap, owner, i)
			}
			c.apShard[ap] = i
		}
	}
	for i := range c.shards {
		shardCfg := cfg
		shardCfg.Building = opts.Buildings[i]
		sys, err := build(i, shardCfg)
		if err != nil {
			for _, built := range c.shards[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		c.shards[i] = sys
	}
	return c, nil
}

// hashShard is FNV-1a over the device ID, reduced mod the shard count: the
// home of a device first seen at an access point no building lists.
func (c *Cluster) hashShard(d locater.DeviceID) int {
	h := fnv.New64a()
	h.Write([]byte(d))
	return int(h.Sum64() % uint64(len(c.shards)))
}

// shardOf resolves the shard owning a device's queries and writes: its
// home, or the hash for devices never ingested (any shard answers their
// queries with the same "unknown device" outcome).
func (c *Cluster) shardOf(d locater.DeviceID) int {
	if len(c.shards) == 1 {
		return 0
	}
	c.mu.RLock()
	i, ok := c.home[d]
	c.mu.RUnlock()
	if ok {
		return i
	}
	return c.hashShard(d)
}

// homeLocked returns the shard event e routes to, homing its device there
// if e is the device's first event: the event's AP decides the building, and
// every later event or query for that device routes to the same shard
// regardless of AP. Callers hold mu exclusively.
func (c *Cluster) homeLocked(e locater.Event) int {
	i, ok := c.home[e.Device]
	if !ok {
		if i, ok = c.apShard[e.AP]; !ok {
			i = c.hashShard(e.Device)
		}
		c.home[e.Device] = i
	}
	return i
}

// Shard exposes shard i's engine (tests and benchmarks reconcile merged
// figures against the shards directly).
func (c *Cluster) Shard(i int) *locater.System { return c.shards[i] }

// NumShards implements locater.Sharded.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardInfos implements locater.Sharded: per-shard counters, index-ordered.
func (c *Cluster) ShardInfos() []locater.ShardInfo {
	infos := make([]locater.ShardInfo, len(c.shards))
	for i, s := range c.shards {
		info := locater.ShardInfo{
			Index:    i,
			Building: s.Building().Name(),
			Events:   s.NumEvents(),
			Devices:  s.NumDevices(),
			Queries:  s.NumQueries(),
		}
		if segments, last, durable, ok := s.PersistStats(); ok {
			info.Segments, info.LastLSN, info.DurableLSN, info.Durable = segments, last, durable, true
		}
		infos[i] = info
	}
	return infos
}

// route partitions events into per-shard batches, preserving each shard's
// relative event order and homing first-seen devices (homeLocked).
func (c *Cluster) route(events []locater.Event) [][]locater.Event {
	parts := make([][]locater.Event, len(c.shards))
	c.mu.Lock()
	for _, e := range events {
		i := c.homeLocked(e)
		parts[i] = append(parts[i], e)
	}
	c.mu.Unlock()
	return parts
}

// Ingest validates the whole batch, routes it, and ingests every shard's
// part concurrently. As with System.Ingest, a batch holding an invalid event
// is rejected whole (ErrInvalidEvent) before any shard stores an event or
// any device is homed. Past validation, per-shard errors are durability
// failures; they are joined, and a failing shard does not abort the others.
func (c *Cluster) Ingest(events []locater.Event) error {
	if len(c.shards) == 1 {
		return c.shards[0].Ingest(events)
	}
	if err := store.ValidateEvents(events); err != nil {
		return err
	}
	parts := c.route(events)
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []locater.Event) {
			defer wg.Done()
			if err := c.shards[i].Ingest(part); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, part)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// IngestOne validates a single streamed event and routes it to its owning
// shard.
func (c *Cluster) IngestOne(e locater.Event) error {
	if len(c.shards) == 1 {
		return c.shards[0].IngestOne(e)
	}
	if err := store.ValidateEvents([]locater.Event{e}); err != nil {
		return err
	}
	c.mu.Lock()
	i := c.homeLocked(e)
	c.mu.Unlock()
	return c.shards[i].IngestOne(e)
}

// SetDelta registers a device-specific validity interval on the owning
// shard.
func (c *Cluster) SetDelta(d locater.DeviceID, delta time.Duration) error {
	return c.shards[c.shardOf(d)].SetDelta(d, delta)
}

// EstimateDeltas fans to every shard concurrently; each shard estimates
// from its own logs (the estimator is per-device, so sharding does not
// change any estimate).
func (c *Cluster) EstimateDeltas(quantile float64, min, max time.Duration) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.shards[i].EstimateDeltas(quantile, min, max); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// AddRoomLabel records a room-level observation on the device's owning
// shard (the room must belong to that shard's building).
func (c *Cluster) AddRoomLabel(d locater.DeviceID, r locater.RoomID, t time.Time) error {
	return c.shards[c.shardOf(d)].AddRoomLabel(d, r, t)
}

// SetTimePreferredRooms registers time-scoped preferred rooms on the
// device's owning shard.
func (c *Cluster) SetTimePreferredRooms(d locater.DeviceID, prefs []locater.TimePreference) error {
	return c.shards[c.shardOf(d)].SetTimePreferredRooms(d, prefs)
}

// Locate answers Q = (device, t) on the owning shard.
func (c *Cluster) Locate(d locater.DeviceID, t time.Time) (locater.Result, error) {
	return c.shards[c.shardOf(d)].Locate(d, t)
}

// LocateContext is Locate under a context deadline, on the owning shard.
func (c *Cluster) LocateContext(ctx context.Context, d locater.DeviceID, t time.Time) (locater.Result, error) {
	return c.shards[c.shardOf(d)].LocateContext(ctx, d, t)
}

// LocateBatch answers many queries across shards, results in input order.
func (c *Cluster) LocateBatch(queries []locater.Query, workers int) []locater.BatchResult {
	return c.LocateBatchContext(context.Background(), queries, workers)
}

// LocateBatchContext splits the batch by owning shard, answers every
// sub-batch concurrently on the shards' own worker pools, and re-merges the
// answers into input order. Per-query errors stay attached to their slots —
// one failing query never aborts the rest, exactly as in System. The worker
// budget is divided across shards proportionally to their share of the
// batch (at least one worker each), so the cluster-wide pool stays at the
// caller's bound instead of multiplying by the shard count.
func (c *Cluster) LocateBatchContext(ctx context.Context, queries []locater.Query, workers int) []locater.BatchResult {
	if len(c.shards) == 1 {
		return c.shards[0].LocateBatchContext(ctx, queries, workers)
	}
	out := make([]locater.BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	idxs := make([][]int, len(c.shards))
	for i, q := range queries {
		s := c.shardOf(q.Device)
		idxs[s] = append(idxs[s], i)
	}
	var wg sync.WaitGroup
	for s, ix := range idxs {
		if len(ix) == 0 {
			continue
		}
		sub := make([]locater.Query, len(ix))
		for j, i := range ix {
			sub[j] = queries[i]
		}
		w := workers * len(ix) / len(queries)
		if w < 1 {
			w = 1
		}
		wg.Add(1)
		go func(s int, ix []int, sub []locater.Query, w int) {
			defer wg.Done()
			res := c.shards[s].LocateBatchContext(ctx, sub, w)
			for j, i := range ix {
				out[i] = res[j]
			}
		}(s, ix, sub, w)
	}
	wg.Wait()
	return out
}

// Building returns the first shard's building (callers should consult
// ShardInfos for the full list).
func (c *Cluster) Building() *locater.Building { return c.shards[0].Building() }

// NumEvents sums ingested events across shards.
func (c *Cluster) NumEvents() int {
	n := 0
	for _, s := range c.shards {
		n += s.NumEvents()
	}
	return n
}

// NumDevices sums distinct devices across shards (shards partition the
// device space, so the sum is exact).
func (c *Cluster) NumDevices() int {
	n := 0
	for _, s := range c.shards {
		n += s.NumDevices()
	}
	return n
}

// NumQueries sums served queries across shards.
func (c *Cluster) NumQueries() int {
	n := 0
	for _, s := range c.shards {
		n += s.NumQueries()
	}
	return n
}

// CacheStats merges every shard's cache tiers (sums — each shard's caches
// are independent).
func (c *Cluster) CacheStats() locater.CacheStats {
	parts := make([]locater.CacheStats, len(c.shards))
	for i, s := range c.shards {
		parts[i] = s.CacheStats()
	}
	return locater.MergeCacheStats(parts...)
}

// CleansingEnabled reports whether any shard runs the ingest-time
// cleansing stage. Clusters are configured uniformly, so in practice this
// is all-or-nothing.
func (c *Cluster) CleansingEnabled() bool {
	for _, s := range c.shards {
		if s.CleansingEnabled() {
			return true
		}
	}
	return false
}

// CleanseStats sums every shard's cleansing counters. Each shard cleanses
// its own slice of the ingest stream independently, so the per-rule totals
// are exact.
func (c *Cluster) CleanseStats() locater.CleanseStats {
	var out locater.CleanseStats
	for _, s := range c.shards {
		p := s.CleanseStats()
		out.Ingested += p.Ingested
		out.Kept += p.Kept
		out.Duplicates += p.Duplicates
		out.Reassociations += p.Reassociations
		out.Oscillations += p.Oscillations
		out.ImpossibleTransitions += p.ImpossibleTransitions
		out.FlaggedDevices += p.FlaggedDevices
		out.Quarantined += p.Quarantined
		out.QuarantineEvicted += p.QuarantineEvicted
	}
	return out
}

// Quarantine merges the shards' quarantine rings into one newest-first
// view, truncated to limit (limit ≤ 0 keeps everything the rings retain).
// Entries order by observation time, breaking ties on event time, so the
// merged view reads like a single ring regardless of which shard rejected
// each event.
func (c *Cluster) Quarantine(limit int) []locater.QuarantineEntry {
	var merged []locater.QuarantineEntry
	for _, s := range c.shards {
		merged = append(merged, s.Quarantine(limit)...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if !merged[i].At.Equal(merged[j].At) {
			return merged[i].At.After(merged[j].At)
		}
		return merged[i].Event.Time.After(merged[j].Event.Time)
	})
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged
}

// QueryStats merges every shard's latency populations (counts sum,
// quantiles take the worst shard — see locater.MergeQueryStats).
func (c *Cluster) QueryStats() locater.QueryStats {
	parts := make([]locater.QueryStats, len(c.shards))
	for i, s := range c.shards {
		parts[i] = s.QueryStats()
	}
	return locater.MergeQueryStats(parts...)
}

// PersistStats sums the shards' WAL shapes: segment counts and log
// positions add up across independent logs, so the merged counters
// reconcile exactly with per-shard sums. ok reports whether every shard is
// durable (clusters are opened uniformly, so mixed durability only arises
// from misuse).
func (c *Cluster) PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool) {
	ok = true
	for _, s := range c.shards {
		seg, last, durable, shardOK := s.PersistStats()
		if !shardOK {
			ok = false
			continue
		}
		segments += seg
		lastLSN += last
		durableLSN += durable
	}
	return segments, lastLSN, durableLSN, ok
}

// Checkpoint snapshots and compacts every shard's log concurrently.
func (c *Cluster) Checkpoint() error {
	return c.fanOut(func(s *locater.System) error { return s.Checkpoint() })
}

// Close checkpoints and releases every shard. The cluster must not be used
// after Close.
func (c *Cluster) Close() error {
	return c.fanOut(func(s *locater.System) error { return s.Close() })
}

func (c *Cluster) fanOut(fn func(*locater.System) error) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(c.shards[i]); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
