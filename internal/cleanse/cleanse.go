// Package cleanse implements LOCATER's ingest-time data-cleansing stage.
//
// The paper's premise is that WiFi connectivity logs are dirty: controllers
// log re-associations while a device sits still, devices at a coverage
// boundary flap between two APs, and clock skew or buggy firmware produces
// transitions no person could physically make. Feeding those events into the
// gap/affinity models wastes model capacity on noise ("Data Cleansing for
// Indoor Positioning Wi-Fi Fingerprinting Datasets", PAPERS.md). The
// Cleanser filters an event batch BEFORE it reaches the WAL and the store,
// so the durable log holds only cleansed events and WAL replay needs no
// second pass.
//
// Rules, applied per device in arrival order:
//
//   - duplicate: an event identical to the device's previous one (same AP,
//     same timestamp) is dropped.
//   - reassociation: a same-AP re-association within ReassocWindow of the
//     previous event adds no location information and is dropped.
//   - oscillation: an A→B→A flap-back — the device returns to the AP it was
//     on two events ago within FlapWindow of first seeing it — is dropped
//     (the device never usefully left A's region).
//   - impossible: a transition between APs whose regions do not overlap in
//     less than MinTransit is physically impossible and is dropped.
//   - degenerate: a device logging more than DegenerateEventsPerMinute in a
//     one-minute span is flagged (counters + Flagged), but its events are
//     NOT dropped — degeneracy is a diagnosis, not a per-event verdict.
//
// Nothing is silently discarded: every dropped event lands in a bounded
// quarantine ring with the rule and a human-readable reason, inspectable
// over GET /v1/quarantine. Out-of-order arrivals (an event older than the
// device's newest) pass through unjudged — the rules are defined on the
// forward stream, and the store handles out-of-order inserts itself.
package cleanse

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// Rule names a cleansing rule in counters and quarantine entries.
type Rule string

const (
	RuleDuplicate     Rule = "duplicate"
	RuleReassociation Rule = "reassociation"
	RuleOscillation   Rule = "oscillation"
	RuleImpossible    Rule = "impossible_transition"
)

// Config tunes the cleansing rules. Zero values select the defaults.
type Config struct {
	// ReassocWindow drops same-AP re-associations closer than this to the
	// device's previous event. Default 10s.
	ReassocWindow time.Duration
	// FlapWindow drops A→B→A flap-backs completing within this span.
	// Default 30s.
	FlapWindow time.Duration
	// MinTransit drops transitions between non-overlapping regions faster
	// than this. Default 1s.
	MinTransit time.Duration
	// DegenerateEventsPerMinute flags (never drops) devices logging more
	// events than this within one minute. Default 120.
	DegenerateEventsPerMinute int
	// QuarantineCap bounds the quarantine ring. Default 1024.
	QuarantineCap int
}

func (c Config) withDefaults() Config {
	if c.ReassocWindow <= 0 {
		c.ReassocWindow = 10 * time.Second
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 30 * time.Second
	}
	if c.MinTransit <= 0 {
		c.MinTransit = time.Second
	}
	if c.DegenerateEventsPerMinute <= 0 {
		c.DegenerateEventsPerMinute = 120
	}
	if c.QuarantineCap <= 0 {
		c.QuarantineCap = 1024
	}
	return c
}

// Entry is one quarantined (dropped) event with the rule that rejected it.
type Entry struct {
	Event  event.Event `json:"event"`
	Rule   Rule        `json:"rule"`
	Reason string      `json:"reason"`
	// At is the wall-clock observation time, for operators correlating the
	// quarantine with ingest traffic.
	At time.Time `json:"at"`
}

// Stats are the cleansing counters surfaced in /v1/stats. All counters are
// cumulative since construction.
type Stats struct {
	Ingested              int64 `json:"ingested"`
	Kept                  int64 `json:"kept"`
	Duplicates            int64 `json:"duplicates"`
	Reassociations        int64 `json:"reassociations"`
	Oscillations          int64 `json:"oscillations"`
	ImpossibleTransitions int64 `json:"impossible_transitions"`
	FlaggedDevices        int64 `json:"flagged_devices"`
	Quarantined           int64 `json:"quarantined"`
	// QuarantineEvicted counts entries pushed out of the bounded ring.
	QuarantineEvicted int64 `json:"quarantine_evicted"`
}

// SeedFunc supplies a device's newest stored event so the per-device rule
// state can be rebuilt lazily after crash recovery (the WAL already holds
// only cleansed events, so replay does not pass through the Cleanser).
type SeedFunc func(d event.DeviceID) (event.Event, bool)

const cleanseStripes = 64

type deviceState struct {
	seeded bool
	// last is the device's newest accepted event; prev the one before it
	// (zero AP when unknown — e.g. right after a lazy recovery seed).
	lastAP    space.APID
	lastNanos int64
	hasLast   bool
	prevAP    space.APID
	prevNanos int64
	hasPrev   bool
	// minute-bucket event counting for the degenerate-device rule.
	minuteBucket int64
	minuteCount  int
	flagged      bool
}

type stripe struct {
	mu  sync.Mutex
	dev map[event.DeviceID]*deviceState
}

// Cleanser applies the rules. Safe for concurrent use; state is striped by
// device so parallel ingest batches touching disjoint devices do not
// contend.
type Cleanser struct {
	cfg      Config
	building *space.Building
	seed     SeedFunc

	stripes [cleanseStripes]stripe

	ingested     atomic.Int64
	kept         atomic.Int64
	dups         atomic.Int64
	reassocs     atomic.Int64
	oscillations atomic.Int64
	impossible   atomic.Int64
	flagged      atomic.Int64

	qmu       sync.Mutex
	quarant   []Entry // ring, capacity cfg.QuarantineCap
	qnext     int     // next write position once the ring is full
	qtotal    atomic.Int64
	qevicted  atomic.Int64
	qcap      int
	nowSource func() time.Time
}

// New builds a Cleanser over the building's region topology (used by the
// impossible-transition rule). building may be nil, which disables that
// rule.
func New(building *space.Building, cfg Config) *Cleanser {
	c := &Cleanser{cfg: cfg.withDefaults(), building: building, nowSource: time.Now}
	c.qcap = c.cfg.QuarantineCap
	for i := range c.stripes {
		c.stripes[i].dev = make(map[event.DeviceID]*deviceState)
	}
	return c
}

// SetSeed installs the lazy recovery seed. Must be called before the first
// Clean that should see recovered state; typically right after Open.
func (c *Cleanser) SetSeed(fn SeedFunc) { c.seed = fn }

func (c *Cleanser) stripeOf(d event.DeviceID) *stripe {
	// FNV-1a, matching the store's shard hashing idiom.
	h := uint32(2166136261)
	for i := 0; i < len(d); i++ {
		h ^= uint32(d[i])
		h *= 16777619
	}
	return &c.stripes[h%cleanseStripes]
}

// Clean filters events in arrival order and returns the kept prefix-stable
// subset. The returned slice aliases the input (events are compacted in
// place); callers that need the original batch must copy it first.
func (c *Cleanser) Clean(events []event.Event) []event.Event {
	if len(events) == 0 {
		return events
	}
	c.ingested.Add(int64(len(events)))
	kept := events[:0]
	for _, e := range events {
		if rule, reason := c.judge(e); rule != "" {
			c.quarantine(e, rule, reason)
			continue
		}
		kept = append(kept, e)
	}
	c.kept.Add(int64(len(kept)))
	return kept
}

// judge applies the rules to one event, updating the device state. It
// returns the rejecting rule ("" when the event is kept).
func (c *Cleanser) judge(e event.Event) (Rule, string) {
	st := c.stripeOf(e.Device)
	st.mu.Lock()
	defer st.mu.Unlock()
	ds := st.dev[e.Device]
	if ds == nil {
		ds = &deviceState{}
		st.dev[e.Device] = ds
	}
	if !ds.seeded {
		ds.seeded = true
		if c.seed != nil {
			if last, ok := c.seed(e.Device); ok {
				ds.lastAP, ds.lastNanos, ds.hasLast = last.AP, last.Time.UnixNano(), true
			}
		}
	}
	ts := e.Time.UnixNano()

	// Out-of-order arrival: the rules are defined on the forward stream.
	// Pass it through without judging or advancing state.
	if ds.hasLast && ts < ds.lastNanos {
		return "", ""
	}

	// Degenerate-device flagging is observational: count first, flag, and
	// still run the drop rules below.
	bucket := ts / int64(time.Minute)
	if bucket != ds.minuteBucket {
		ds.minuteBucket, ds.minuteCount = bucket, 0
	}
	ds.minuteCount++
	if !ds.flagged && ds.minuteCount > c.cfg.DegenerateEventsPerMinute {
		ds.flagged = true
		c.flagged.Add(1)
	}

	if ds.hasLast {
		dt := ts - ds.lastNanos
		if e.AP == ds.lastAP {
			if dt == 0 {
				c.dups.Add(1)
				return RuleDuplicate, fmt.Sprintf("identical to previous event at %s", e.Time.Format(time.RFC3339))
			}
			if dt <= int64(c.cfg.ReassocWindow) {
				c.reassocs.Add(1)
				return RuleReassociation, fmt.Sprintf("re-association with %s after %v (window %v)", e.AP, time.Duration(dt), c.cfg.ReassocWindow)
			}
		} else {
			if ds.hasPrev && e.AP == ds.prevAP && ts-ds.prevNanos <= int64(c.cfg.FlapWindow) {
				c.oscillations.Add(1)
				return RuleOscillation, fmt.Sprintf("flap-back %s→%s→%s within %v", ds.prevAP, ds.lastAP, e.AP, time.Duration(ts-ds.prevNanos))
			}
			if c.impossibleTransition(ds.lastAP, e.AP, dt) {
				c.impossible.Add(1)
				return RuleImpossible, fmt.Sprintf("%s→%s in %v < min transit %v between non-overlapping regions", ds.lastAP, e.AP, time.Duration(dt), c.cfg.MinTransit)
			}
		}
	}

	// Accepted: advance the per-device window.
	if ds.hasLast {
		ds.prevAP, ds.prevNanos, ds.hasPrev = ds.lastAP, ds.lastNanos, true
	}
	ds.lastAP, ds.lastNanos, ds.hasLast = e.AP, ts, true
	return "", ""
}

// impossibleTransition reports whether moving lastAP→nextAP in dt violates
// the minimum transit time between non-overlapping regions. Transitions
// between overlapping regions (or unknown APs) are never impossible — a
// device at a coverage boundary legitimately hops instantly.
func (c *Cleanser) impossibleTransition(lastAP, nextAP space.APID, dt int64) bool {
	if c.building == nil || dt >= int64(c.cfg.MinTransit) {
		return false
	}
	ga, ok := c.building.RegionOf(lastAP)
	if !ok {
		return false
	}
	gb, ok := c.building.RegionOf(nextAP)
	if !ok {
		return false
	}
	if ga == gb || c.building.OverlappingRegions(ga, gb) {
		return false
	}
	return true
}

func (c *Cleanser) quarantine(e event.Event, rule Rule, reason string) {
	c.qtotal.Add(1)
	ent := Entry{Event: e, Rule: rule, Reason: reason, At: c.nowSource()}
	c.qmu.Lock()
	if len(c.quarant) < c.qcap {
		c.quarant = append(c.quarant, ent)
	} else {
		c.quarant[c.qnext] = ent
		c.qnext = (c.qnext + 1) % c.qcap
		c.qevicted.Add(1)
	}
	c.qmu.Unlock()
}

// Quarantine returns up to limit quarantined entries, newest first.
// limit ≤ 0 returns everything retained.
func (c *Cleanser) Quarantine(limit int) []Entry {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	n := len(c.quarant)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Entry, 0, limit)
	// Newest entry is just before qnext once the ring wrapped, else at the
	// end of the slice.
	for i := 0; i < limit; i++ {
		idx := (c.qnext - 1 - i + 2*n) % n
		out = append(out, c.quarant[idx])
	}
	return out
}

// Flagged reports whether the device tripped the degenerate-log rule.
func (c *Cleanser) Flagged(d event.DeviceID) bool {
	st := c.stripeOf(d)
	st.mu.Lock()
	defer st.mu.Unlock()
	ds := st.dev[d]
	return ds != nil && ds.flagged
}

// Stats snapshots the cleansing counters.
func (c *Cleanser) Stats() Stats {
	return Stats{
		Ingested:              c.ingested.Load(),
		Kept:                  c.kept.Load(),
		Duplicates:            c.dups.Load(),
		Reassociations:        c.reassocs.Load(),
		Oscillations:          c.oscillations.Load(),
		ImpossibleTransitions: c.impossible.Load(),
		FlaggedDevices:        c.flagged.Load(),
		Quarantined:           c.qtotal.Load(),
		QuarantineEvicted:     c.qevicted.Load(),
	}
}
