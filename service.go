package locater

import (
	"context"
	"time"
)

// Locater is the service surface of a LOCATER deployment: everything the
// HTTP layer (internal/srv), the command-line tools, and the load harness
// need from an engine, independent of where that engine runs. *System is
// the in-process implementation (one building, one store, one WAL);
// internal/client.Client speaks the same interface to a remote
// locater-serve over the /v1 HTTP API, so code written against Locater
// drives a local and a remote engine alike. A site with several buildings
// runs one locater-serve per building.
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

	// Building returns the space metadata served; remote clients may
	// return nil.
	Building() *Building
	// NumEvents, NumDevices, and NumQueries are the building's counters.
	NumEvents() int
	NumDevices() int
	NumQueries() int
	// CacheStats reports the caching layer per tier.
	CacheStats() CacheStats
	// QueryStats reports the service-level latency picture.
	QueryStats() QueryStats
	// PersistStats reports the durable store's shape; ok is false on
	// in-memory deployments.
	PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool)

	// Checkpoint snapshots durable state and compacts the log; a no-op
	// on in-memory deployments.
	Checkpoint() error
	// Close releases the engine (final checkpoint on durable deployments).
	Close() error
}

// Quarantiner is the optional service interface an engine implements when
// it can expose the ingest-time cleansing stage's quarantine. The HTTP
// layer detects it to serve GET /v1/quarantine. A System always implements
// it — with cleansing disabled the quarantine is simply empty.
type Quarantiner interface {
	// Quarantine returns the newest cleansing-rejected events, newest
	// first, at most limit (limit ≤ 0 returns everything retained).
	Quarantine(limit int) []QuarantineEntry
	// CleanseStats reports the cleansing stage's per-rule counters.
	CleanseStats() CleanseStats
	// CleansingEnabled reports whether the ingest-time cleansing stage is
	// on.
	CleansingEnabled() bool
}

// Compile-time check: the single-building engine implements the full
// service interface and the quarantine surface.
var (
	_ Locater     = (*System)(nil)
	_ Quarantiner = (*System)(nil)
)
