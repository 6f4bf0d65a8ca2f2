package locater

import (
	"context"
	"time"
)

// Locater is the service surface of a LOCATER deployment: everything the
// HTTP layer (internal/srv), the command-line tools, and the load harness
// need from an engine, independent of how that engine is assembled. Two
// local implementations exist — *System (one building, one store, one WAL)
// and internal/cluster.Cluster (N independent System shards behind a
// router) — plus internal/client.Client, which speaks the same interface to
// a remote locater-serve over the /v1 HTTP API. Code written against
// Locater is deployment-agnostic: in-process single-node, in-process
// sharded, and remote targets are interchangeable.
//
// Administrative operations that a particular implementation cannot perform
// (e.g. Checkpoint over HTTP) return errors.ErrUnsupported rather than
// silently succeeding.
type Locater interface {
	// Locate answers the query Q = (device, t) at all granularities.
	Locate(d DeviceID, t time.Time) (Result, error)
	// LocateContext is Locate under a context deadline; expired queries
	// fail with ErrDeadlineExceeded at pipeline stage boundaries.
	LocateContext(ctx context.Context, d DeviceID, t time.Time) (Result, error)
	// LocateBatch answers many queries on a bounded worker pool, results
	// in input order with per-query errors.
	LocateBatch(queries []Query, workers int) []BatchResult
	// LocateBatchContext is LocateBatch under a context deadline.
	LocateBatchContext(ctx context.Context, queries []Query, workers int) []BatchResult

	// Ingest adds a batch of connectivity events; on durable deployments
	// the batch is logged ahead of the acknowledgement.
	Ingest(events []Event) error
	// EstimateDeltas derives per-device validity intervals δ(d) from the
	// ingested logs (Appendix 9.1).
	EstimateDeltas(quantile float64, min, max time.Duration) error

	// Building returns the space metadata served. Sharded deployments
	// return their first shard's building; remote clients may return nil.
	Building() *Building
	// NumEvents, NumDevices, and NumQueries are whole-deployment counters
	// (summed across shards in a cluster).
	NumEvents() int
	NumDevices() int
	NumQueries() int
	// CacheStats reports the caching layer per tier, merged across shards.
	CacheStats() CacheStats
	// QueryStats reports the service-level latency picture, merged across
	// shards.
	QueryStats() QueryStats
	// PersistStats reports the durable store's shape; ok is false on
	// in-memory deployments. Clusters report per-shard sums.
	PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool)

	// Checkpoint snapshots durable state and compacts the log(s); a no-op
	// on in-memory deployments.
	Checkpoint() error
	// Close releases the engine (final checkpoint on durable deployments).
	Close() error
}

// ShardInfo describes one shard of a sharded deployment, for topology
// introspection (the /v1/stats cluster block) and for reconciling merged
// counters against per-shard sums.
type ShardInfo struct {
	// Index is the shard's position in the router's table.
	Index int
	// Building is the shard's building name.
	Building string
	// Events, Devices, Queries are the shard's own counters; summing them
	// across shards reproduces the cluster-level figures.
	Events, Devices, Queries int
	// Segments, LastLSN, DurableLSN describe the shard's WAL; Durable is
	// false for in-memory shards (the LSN fields are then zero).
	Segments            int
	LastLSN, DurableLSN uint64
	Durable             bool
}

// Sharded is the optional topology interface a multi-shard Locater
// implements. The HTTP layer detects it to publish the cluster block under
// /v1/stats; a bare *System deliberately does not implement it.
type Sharded interface {
	// NumShards is the number of independent System shards.
	NumShards() int
	// ShardInfos reports per-shard counters, index-ordered.
	ShardInfos() []ShardInfo
}

// Quarantiner is the optional service interface an engine implements when
// it can expose the ingest-time cleansing stage's quarantine. The HTTP
// layer detects it to serve GET /v1/quarantine; a cluster merges its
// shards' rings. A System always implements it — with cleansing disabled
// the quarantine is simply empty.
type Quarantiner interface {
	// Quarantine returns the newest cleansing-rejected events, newest
	// first, at most limit (limit ≤ 0 returns everything retained).
	Quarantine(limit int) []QuarantineEntry
	// CleanseStats reports the cleansing stage's per-rule counters.
	CleanseStats() CleanseStats
	// CleansingEnabled reports whether the ingest-time cleansing stage is
	// on (any shard, on a cluster).
	CleansingEnabled() bool
}

// Compile-time check: the single-building engine implements the full
// service interface and the quarantine surface.
var (
	_ Locater     = (*System)(nil)
	_ Quarantiner = (*System)(nil)
)
