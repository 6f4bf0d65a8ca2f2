package srv

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// Admission control: the server's overload-degradation layer. Each request
// class (/v1/locate, /v1/locate/batch, /v1/ingest) owns one admitQueue — a
// bounded executing-slot semaphore plus a bounded waiting queue — so
// overload degrades into prompt, retryable rejections instead of an
// unbounded pile of goroutines all missing their deadlines together (p99
// collapse).
//
// Three rejection rules, checked in order when no slot is free:
//
//  1. Shed: batch requests are rejected once queue occupancy crosses
//     ShedBatchAt — LocateBatch degrades before single Locate, because one
//     batch holds a slot for its whole fan-out while a Locate holds it for
//     one query.
//  2. Queue full: the waiting queue is bounded (see effectiveMaxQueue);
//     requests beyond the bound are rejected immediately (429 +
//     Retry-After) rather than parked.
//  3. Deadline-aware: the expected wait (EWMA service time × queue depth ÷
//     slots) is compared against the request's remaining deadline; a request
//     that cannot plausibly be served in time is rejected up front — the
//     client gets its 429 with a Retry-After hint while its deadline still
//     has value, instead of a 504 after burning a queue slot.
//
// A request that queues waits at most until its context deadline; expiry in
// the queue is a 429 too (the work never started, so a retry is safe).

// QueueConfig bounds one request class.
type QueueConfig struct {
	// MaxConcurrent is the number of requests of this class executing at
	// once; further admitted requests wait in the queue.
	MaxConcurrent int
	// MaxQueue caps the number of requests allowed to wait for a slot;
	// arrivals beyond the bound in force (at most MaxQueue, see
	// AdmissionOptions.TargetQueueWait) are rejected with 429 +
	// Retry-After.
	MaxQueue int
}

// AdmissionOptions configures the server's admission-control layer. Zero
// fields take the defaults below.
type AdmissionOptions struct {
	// Locate, Batch, Ingest bound the three request classes. Zero fields
	// take the defaults (see defaultAdmission).
	Locate, Batch, Ingest QueueConfig
	// DefaultDeadline is applied to requests that carry no deadline_ms;
	// MaxDeadline clamps client-requested deadlines. Defaults 5s / 30s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// ShedBatchAt is the queue-occupancy fraction (of either the batch or
	// the locate queue) above which batch requests are shed. Default 0.5.
	ShedBatchAt float64
	// TargetQueueWait is the waiting time each class's queue bound aims
	// for. The bound adapts to the observed EWMA service time via Little's
	// law: the queue admits only as many waiters as the class can drain
	// within TargetQueueWait at its current service rate, clamped to
	// [2, MaxQueue]. Fast service → deep queue (absorb bursts); slow
	// service → shallow queue (reject early, before waiters' deadlines rot
	// in line). Default 2s.
	TargetQueueWait time.Duration
}

// defaultAdmission fills zero fields with the defaults: locate gets
// 2×GOMAXPROCS executing slots and a 4× deep queue, batch gets 4 slots,
// ingest is narrow (the store's ingest lock is
// exclusive, extra slots only queue inside it).
func defaultAdmission(o AdmissionOptions) AdmissionOptions {
	cpus := runtime.GOMAXPROCS(0)
	def := func(c *QueueConfig, conc, queue int) {
		if c.MaxConcurrent <= 0 {
			c.MaxConcurrent = conc
		}
		if c.MaxQueue <= 0 {
			c.MaxQueue = queue
		}
	}
	def(&o.Locate, max(4, 2*cpus), max(16, 8*cpus))
	def(&o.Batch, 4, 8)
	def(&o.Ingest, 2, max(8, 2*cpus))
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = 5 * time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 30 * time.Second
	}
	if o.ShedBatchAt <= 0 || o.ShedBatchAt > 1 {
		o.ShedBatchAt = 0.5
	}
	if o.TargetQueueWait <= 0 {
		o.TargetQueueWait = 2 * time.Second
	}
	return o
}

// admitError is a rejected or failed admission, ready to render as an HTTP
// error. Code is the machine-readable taxonomy entry clients and load
// harnesses classify on.
type admitError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration // > 0 adds a Retry-After header
}

// Rejection taxonomy codes (the "code" field of 429/504 bodies).
const (
	codeQueueFull          = "queue_full"          // waiting queue at MaxQueue
	codeShed               = "shed"                // batch shed under load
	codeDeadlineInfeasible = "deadline_infeasible" // expected wait > remaining deadline
	codeDeadlineQueue      = "deadline_queue"      // deadline expired while queued
	codeDeadlineExceeded   = "deadline_exceeded"   // deadline expired during execution (504)
)

// admitQueue is one request class's bounded executing/waiting state.
type admitQueue struct {
	cfg QueueConfig
	// targetWaitNs is the queue bound's aim (see
	// AdmissionOptions.TargetQueueWait).
	targetWaitNs int64
	// slots holds one token per executing request; acquiring = sending.
	slots chan struct{}
	// queued counts requests waiting for a slot (bounded by MaxQueue).
	queued atomic.Int64
	// ewmaNs smooths observed service times; it feeds the expected-wait
	// estimate. Updated racily (load-modify-store) on purpose: it is a
	// smoothed statistic, and atomic loads/stores keep it tear-free.
	ewmaNs atomic.Int64

	admitted          atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDeadline  atomic.Int64
	rejectedShed      atomic.Int64
	timedOutInQueue   atomic.Int64
	execDeadline      atomic.Int64
}

func newAdmitQueue(cfg QueueConfig, targetWait time.Duration) *admitQueue {
	return &admitQueue{
		cfg:          cfg,
		targetWaitNs: int64(targetWait),
		slots:        make(chan struct{}, cfg.MaxConcurrent),
	}
}

// effectiveMaxQueue is the waiting-queue bound currently in force. Before
// the first service-time observation it is the configured MaxQueue.
// Afterwards Little's law sizes the queue to the longest backlog the class
// can drain within TargetQueueWait at its current EWMA service time (one
// wave of MaxConcurrent per EWMA), clamped to [2, MaxQueue]: a fast class
// keeps its deep burst buffer, a slow one rejects early instead of parking
// waiters whose deadlines will rot in line.
func (q *admitQueue) effectiveMaxQueue() int64 {
	maxQ := int64(q.cfg.MaxQueue)
	ewma := q.ewmaNs.Load()
	if ewma <= 0 {
		return maxQ
	}
	return min(max(q.targetWaitNs*int64(q.cfg.MaxConcurrent)/ewma, 2), maxQ)
}

// occupancy is the waiting queue's fullness in [0, 1] relative to the
// bound in force.
func (q *admitQueue) occupancy() float64 {
	return float64(q.queued.Load()) / float64(q.effectiveMaxQueue())
}

// expectedWait estimates how long the (waiting+1)-th request will wait for a
// slot: one EWMA service time per "wave" of MaxConcurrent requests ahead of
// it. Zero until the first service time is observed.
func (q *admitQueue) expectedWait(waiting int64) time.Duration {
	ewma := q.ewmaNs.Load()
	if ewma <= 0 {
		return 0
	}
	waves := (waiting + int64(q.cfg.MaxConcurrent) - 1) / int64(q.cfg.MaxConcurrent)
	return time.Duration(ewma * waves)
}

// retryAfter converts an expected wait into a Retry-After hint (whole
// seconds, at least 1).
func retryAfter(wait time.Duration) time.Duration {
	secs := math.Ceil(wait.Seconds())
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// admit gates one request. shedAbove < 0 disables shedding (locate, ingest);
// otherwise the request is shed when either this queue's occupancy or the
// supplied peer occupancy exceeds it (batch sheds on locate pressure too).
// On success the returned release func MUST be called with the observed
// service duration; on rejection release is nil and the admitError is ready
// to render.
func (q *admitQueue) admit(ctx context.Context, shedAbove float64, peerOccupancy float64) (release func(time.Duration), rej *admitError) {
	// Fast path: a free slot admits immediately, bypassing every queue
	// check — an idle server never rejects.
	select {
	case q.slots <- struct{}{}:
		q.admitted.Add(1)
		return q.release, nil
	default:
	}

	// A request whose deadline already expired is rejected before queueing.
	if ctx.Err() != nil {
		q.rejectedDeadline.Add(1)
		return nil, &admitError{
			status: 429, code: codeDeadlineInfeasible,
			msg:        "deadline expired before admission",
			retryAfter: retryAfter(q.expectedWait(q.queued.Load())),
		}
	}

	waiting := q.queued.Add(1)
	maxQueue := q.effectiveMaxQueue()

	// Shed check: batch degrades before single locate. Uses the occupancy
	// including this request, so a single waiter against MaxQueue=1 sheds.
	if shedAbove >= 0 {
		occ := float64(waiting) / float64(maxQueue)
		if occ > shedAbove || peerOccupancy > shedAbove {
			q.queued.Add(-1)
			q.rejectedShed.Add(1)
			return nil, &admitError{
				status: 429, code: codeShed,
				msg:        "shedding batch load",
				retryAfter: retryAfter(q.expectedWait(waiting)),
			}
		}
	}

	// Bounded queue: beyond the effective bound the request is turned away
	// now.
	if waiting > maxQueue {
		q.queued.Add(-1)
		q.rejectedQueueFull.Add(1)
		return nil, &admitError{
			status: 429, code: codeQueueFull,
			msg:        "request queue full",
			retryAfter: retryAfter(q.expectedWait(waiting)),
		}
	}

	// Deadline-aware rejection: if the expected wait alone exceeds the
	// remaining deadline, the request cannot be served in time — reject
	// while the client's deadline still has value.
	if dl, ok := ctx.Deadline(); ok {
		if wait := q.expectedWait(waiting); wait > 0 && wait > time.Until(dl) {
			q.queued.Add(-1)
			q.rejectedDeadline.Add(1)
			return nil, &admitError{
				status: 429, code: codeDeadlineInfeasible,
				msg:        "expected queue wait exceeds request deadline",
				retryAfter: retryAfter(wait),
			}
		}
	}

	// Queue: wait for a slot, but never past the request's deadline.
	select {
	case q.slots <- struct{}{}:
		q.queued.Add(-1)
		q.admitted.Add(1)
		return q.release, nil
	case <-ctx.Done():
		q.queued.Add(-1)
		q.timedOutInQueue.Add(1)
		return nil, &admitError{
			status: 429, code: codeDeadlineQueue,
			msg:        "deadline expired while queued",
			retryAfter: retryAfter(q.expectedWait(q.queued.Load())),
		}
	}
}

// release frees the slot and folds the observed service time into the EWMA
// (α = 1/8).
func (q *admitQueue) release(served time.Duration) {
	old := q.ewmaNs.Load()
	sample := int64(served)
	if sample < 0 {
		sample = 0
	}
	if old == 0 {
		q.ewmaNs.Store(sample)
	} else {
		q.ewmaNs.Store(old + (sample-old)/8)
	}
	<-q.slots
}

// AdmissionQueueResponse is the JSON shape of one request class's admission
// state under GET /v1/stats.
type AdmissionQueueResponse struct {
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// EffectiveMaxQueue is the waiting-queue bound currently in force:
	// MaxQueue until a service time has been observed, adapted to the EWMA
	// service time afterwards (see AdmissionOptions.TargetQueueWait).
	EffectiveMaxQueue int `json:"effective_max_queue"`
	// InFlight / Queued are instantaneous gauges.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Counters are cumulative and monotone.
	Admitted          int64 `json:"admitted"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDeadline  int64 `json:"rejected_deadline"`
	RejectedShed      int64 `json:"rejected_shed"`
	TimedOutInQueue   int64 `json:"timed_out_in_queue"`
	// DeadlineExceeded counts requests admitted but failed mid-execution
	// with a 504 (their deadline expired between pipeline stages).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// EWMAServiceMicros is the smoothed service time feeding the
	// expected-wait estimate.
	EWMAServiceMicros float64 `json:"ewma_service_us"`
}

// AdmissionResponse is the JSON shape of the /v1/stats admission block.
type AdmissionResponse struct {
	Locate AdmissionQueueResponse `json:"locate"`
	Batch  AdmissionQueueResponse `json:"batch"`
	Ingest AdmissionQueueResponse `json:"ingest"`
}

func admissionQueueResponseOf(q *admitQueue) AdmissionQueueResponse {
	return AdmissionQueueResponse{
		MaxConcurrent:     q.cfg.MaxConcurrent,
		MaxQueue:          q.cfg.MaxQueue,
		EffectiveMaxQueue: int(q.effectiveMaxQueue()),
		InFlight:          len(q.slots),
		Queued:            int(q.queued.Load()),
		Admitted:          q.admitted.Load(),
		RejectedQueueFull: q.rejectedQueueFull.Load(),
		RejectedDeadline:  q.rejectedDeadline.Load(),
		RejectedShed:      q.rejectedShed.Load(),
		TimedOutInQueue:   q.timedOutInQueue.Load(),
		DeadlineExceeded:  q.execDeadline.Load(),
		EWMAServiceMicros: float64(q.ewmaNs.Load()) / 1000,
	}
}
