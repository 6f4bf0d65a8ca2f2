package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"locater/internal/eval"
	"locater/internal/event"
	"locater/internal/sim"
)

// Every op list is a pure function of (dataset, params, seed): the streams
// below draw from math/rand sources seeded from the run seed and a fixed
// stream number, never from the clock.

// Stream numbers keep the benchmark's random sources apart.
const (
	streamSteady = 1 + iota
	streamHot
	streamHotRanks
	streamFeed
	streamLiveReads
	streamScore
	streamFirstTouch
	streamCheck
	streamScoreReplayed
)

func newRand(seed int64, stream, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*1009 + int64(client)))
}

func locateOp(d event.DeviceID, t time.Time) sim.Op {
	return sim.Op{Kind: sim.OpLocate, Query: sim.LocateQuery{Device: d, Time: t}}
}

func devicesOf(ds *sim.Dataset) []event.DeviceID {
	out := make([]event.DeviceID, len(ds.People))
	for i, p := range ds.People {
		out[i] = p.Device
	}
	return out
}

// --- steady-read ---------------------------------------------------------------

// steadyKeys is steady-read's key space in a seeded random order: every
// (device, minute) pair over 09:00–17:00 of the five query days appears
// once, so no two reads share a result-cache bucket (one minute) and the
// result cache always misses.
type steadyKeys struct {
	p       params
	devices []event.DeviceID
	perm    []int32
}

func newSteadyKeys(p params, ds *sim.Dataset, seed int64) *steadyKeys {
	devices := devicesOf(ds)
	n := len(devices) * p.steadyDays * p.steadyMinutesOfDay
	perm := make([]int32, n)
	for i, v := range newRand(seed, streamSteady, 0).Perm(n) {
		perm[i] = int32(v)
	}
	return &steadyKeys{p: p, devices: devices, perm: perm}
}

// at returns the i-th read of the sequence (wrapping after the key space,
// which holds minutes of traffic at full scale).
func (k *steadyKeys) at(i int) sim.Op {
	key := int(k.perm[i%len(k.perm)])
	slots := k.p.steadyDays * k.p.steadyMinutesOfDay
	dev, slot := key/slots, key%slots
	day, minute := slot/k.p.steadyMinutesOfDay, slot%k.p.steadyMinutesOfDay
	t := simStart.AddDate(0, 0, k.p.steadyFirstDay()+day).Add(9*time.Hour + time.Duration(minute)*time.Minute)
	return locateOp(k.devices[dev], t)
}

// opStream yields a client's next operation.
type opStream interface{ next() sim.Op }

// steadyStream walks steadyKeys from a start position with a stride, so
// concurrent clients interleave over disjoint keys.
type steadyStream struct {
	keys        *steadyKeys
	pos, stride int
}

func (s *steadyStream) next() sim.Op {
	op := s.keys.at(s.pos)
	s.pos += s.stride
	return op
}

// --- hot-dashboard --------------------------------------------------------------

// hotStream is dashboard polling: a Zipf-ranked device at one of a few fixed
// quarter-hours, a tenth of the operations being 16-query batches.
type hotStream struct {
	p     params
	rng   *rand.Rand
	zipf  *rand.Zipf
	ranks []event.DeviceID // rank → device, a seeded shuffle shared by all clients
	times []time.Time
}

func newHotStream(p params, ds *sim.Dataset, seed int64, client int) *hotStream {
	ranks := shuffledDevices(ds, seed, streamHotRanks)
	rng := newRand(seed, streamHot, client)
	day := simStart.AddDate(0, 0, p.steadyFirstDay()+2)
	times := make([]time.Time, p.hotTimes)
	for i := range times {
		times[i] = day.Add(10*time.Hour + time.Duration(i)*45*time.Minute)
	}
	return &hotStream{p: p, rng: rng, zipf: rand.NewZipf(rng, p.zipfS, 1, uint64(len(ranks)-1)), ranks: ranks, times: times}
}

func (s *hotStream) query() sim.LocateQuery {
	return sim.LocateQuery{Device: s.ranks[s.zipf.Uint64()], Time: s.times[s.rng.Intn(len(s.times))]}
}

func (s *hotStream) next() sim.Op {
	if s.rng.Float64() < s.p.hotBatchShare {
		op := sim.Op{Kind: sim.OpBatch, Batch: make([]sim.LocateQuery, s.p.batchSize)}
		for i := range op.Batch {
			op.Batch[i] = s.query()
		}
		return op
	}
	q := s.query()
	return locateOp(q.Device, q.Time)
}

// take draws n ops from a stream.
func take(s opStream, n int) []sim.Op {
	ops := make([]sim.Op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// firstTouchOps opens every serving warm-up: one read per device at midday,
// when most devices sit in the medium-length gaps only a trained model can
// classify, so most coarse models are trained before the workload's own
// stream starts.
func firstTouchOps(p params, ds *sim.Dataset) []sim.Op {
	t := simStart.AddDate(0, 0, p.steadyFirstDay()).Add(12*time.Hour + 30*time.Minute)
	ops := make([]sim.Op, len(ds.People))
	for i, person := range ds.People {
		ops[i] = locateOp(person.Device, t)
	}
	return ops
}

// allKeys is hot-dashboard's whole key space as single reads, rank by rank:
// the warm-up answers each once, so the models behind every key are trained
// by single short requests and the stream that follows only meets cached
// answers. (A cold 16-query batch can train dozens of models in one request
// and miss its deadline on a busy machine.)
func (s *hotStream) allKeys() []sim.Op {
	ops := make([]sim.Op, 0, len(s.ranks)*len(s.times))
	for _, d := range s.ranks {
		for _, t := range s.times {
			ops = append(ops, locateOp(d, t))
		}
	}
	return ops
}

// --- live-mixed -----------------------------------------------------------------

// feedSchedule is live-mixed's write side: the history to import first and
// the last day from 09:00 cut into fixed-size chunks, chunk i due i periods
// after the feed starts. The chunking and the dirt (oscillation bursts,
// reversed chunks) are sim.BuildWorkload's own.
type feedSchedule struct {
	history []event.Event
	chunks  []sim.Op
}

func newFeedSchedule(p params, ds *sim.Dataset, seed int64, seconds int) (*feedSchedule, error) {
	n := int(time.Duration(seconds) * time.Second / p.feedPeriod)
	w, err := sim.BuildWorkload(ds, sim.WorkloadSpec{
		Ops:  n,
		Seed: seed*1_000_003 + streamFeed,
		// Every op is an ingest chunk: the smallest read share the spec
		// accepts (zero would select its 0.9 default).
		ReadFraction:  math.SmallestNonzeroFloat64,
		IngestChunk:   p.feedChunk,
		Arrival:       sim.ArrivalUniform,
		DirtyFraction: p.feedDirtyShare,
		SimStart:      p.feedStart(),
	})
	if err != nil {
		return nil, err
	}
	for i, op := range w.Ops {
		if op.Kind != sim.OpIngest {
			return nil, fmt.Errorf("feed op %d is a %s, want ingest", i, op.Kind)
		}
	}
	return &feedSchedule{history: w.History, chunks: w.Ops}, nil
}

// liveReads is live-mixed's read side. A frontier read asks where a device
// of the last p.frontierEvents fed events is, shortly after its newest event
// (an open gap: a real-time query). A settled read is the next of
// steady-read's sequence after the warm-up's. Which chunks count as fed is
// the caller's to say: the reader asks the feed beside it, the traced list
// fixes it per chunk.
type liveReads struct {
	p       params
	rng     *rand.Rand
	feed    *feedSchedule
	settled steadyStream
}

func newLiveReads(p params, keys *steadyKeys, feed *feedSchedule, seed int64) *liveReads {
	return &liveReads{p: p, rng: newRand(seed, streamLiveReads, 0), feed: feed,
		settled: steadyStream{keys: keys, pos: p.steadyWarmOps, stride: 1}}
}

// next draws the read issued when the first fed chunks of the schedule have
// been acknowledged.
func (r *liveReads) next(fed int) sim.Op {
	if fed == 0 || r.rng.Float64() >= r.p.frontierShare {
		return r.settled.next()
	}
	lo := max(fed-max(r.p.frontierEvents/r.p.feedChunk, 1), 0)
	chunk := r.feed.chunks[lo+r.rng.Intn(fed-lo)].Events
	dev := chunk[r.rng.Intn(len(chunk))].Device
	// The device's newest fed event, scanning the fed chunks back.
	var newest time.Time
	for i := fed - 1; i >= 0 && newest.IsZero(); i-- {
		for _, e := range r.feed.chunks[i].Events {
			if e.Device == dev && e.Time.After(newest) {
				newest = e.Time
			}
		}
	}
	ahead := time.Duration(r.rng.Int63n(int64(r.p.frontierMaxAhead)))
	return locateOp(dev, newest.Add(ahead).Truncate(time.Second))
}

// replayedWindow is the span of simulated time the feed replays: from its
// start to its newest event.
func (f *feedSchedule) replayedWindow(p params) (from, to time.Time) {
	from = p.feedStart()
	to = from
	for _, c := range f.chunks {
		for _, e := range c.Events {
			if e.Time.After(to) {
				to = e.Time
			}
		}
	}
	return from, to
}

// --- op-list identity -----------------------------------------------------------

// opHasher folds ops into a digest in a canonical text form; two runs face
// the same inputs exactly when their digests match.
type opHasher struct{ h hash.Hash }

func newOpHasher() *opHasher { return &opHasher{h: sha256.New()} }

func (o *opHasher) add(op sim.Op) {
	switch op.Kind {
	case sim.OpLocate:
		fmt.Fprintf(o.h, "L %s %d\n", op.Query.Device, op.Query.Time.UnixNano())
	case sim.OpBatch:
		fmt.Fprintf(o.h, "B %d", len(op.Batch))
		for _, q := range op.Batch {
			fmt.Fprintf(o.h, " %s %d", q.Device, q.Time.UnixNano())
		}
		fmt.Fprintln(o.h)
	case sim.OpIngest:
		fmt.Fprintf(o.h, "I %d %t", len(op.Events), op.Dirty)
		for _, e := range op.Events {
			fmt.Fprintf(o.h, " %s %d %s", e.Device, e.Time.UnixNano(), e.AP)
		}
		fmt.Fprintln(o.h)
	}
}

func (o *opHasher) sum() string { return hex.EncodeToString(o.h.Sum(nil)) }

// --- the plan of one run ----------------------------------------------------------

// plan is everything a run's inputs consist of, fixed by (params, dataset,
// workload, seed, seconds) before the engine is built.
type plan struct {
	keys *steadyKeys
	// feed is live-mixed's write schedule; nil on the other workloads.
	feed *feedSchedule
	// history is what the import cycle ingests: the whole dataset, or, on
	// live-mixed, everything before the feed starts.
	history []event.Event
	// warm is the serial warm-up of a serving workload.
	warm []sim.Op
	// serial is the traced run's op list; import-restart's are its
	// first-touch queries, which the untraced run answers too.
	serial []tracedOp
	// firstTouch are import-restart's queries with their ground truth.
	firstTouch []eval.Query
	// checks are the queries import-restart's crash check answers before a
	// crash and again after recovery.
	checks []eval.Query
	// scored are the queries of the scoring pass; import-restart scores its
	// first-touch answers too, and asks as many fewer here. On live-mixed the
	// first `replayed` of them fall in the window the feed replayed.
	scored   []eval.Query
	replayed int
}

// tracedOp is one entry of a serial op list: the op and, for a paced list,
// when it is due after the list starts.
type tracedOp struct {
	op    sim.Op
	due   time.Duration
	paced bool
}

func newPlan(p params, ds *sim.Dataset, workload string, seed int64, seconds int) (*plan, error) {
	pl := &plan{keys: newSteadyKeys(p, ds, seed), history: ds.Events}
	unpaced := func(ops []sim.Op) {
		for _, op := range ops {
			pl.serial = append(pl.serial, tracedOp{op: op})
		}
	}
	week := simStart.AddDate(0, 0, p.steadyFirstDay())
	weekEnd := week.AddDate(0, 0, p.steadyDays)
	switch workload {
	case wlSteadyRead:
		pl.warm = append(firstTouchOps(p, ds), take(&steadyStream{keys: pl.keys, stride: 1}, p.steadyWarmOps)...)
		unpaced(take(&steadyStream{keys: pl.keys, pos: p.steadyWarmOps, stride: 1}, p.tracedSteadyOpsPerSec*seconds))
	case wlHotDashboard:
		warm := newHotStream(p, ds, seed, 0)
		pl.warm = append(warm.allKeys(), take(warm, p.hotWarmOpsPerSec*seconds)...)
		unpaced(take(newHotStream(p, ds, seed, 1), p.tracedHotOpsPerSec*seconds))
	case wlLiveMixed:
		feed, err := newFeedSchedule(p, ds, seed, seconds)
		if err != nil {
			return nil, err
		}
		pl.feed, pl.history = feed, feed.history
		pl.warm = append(firstTouchOps(p, ds), take(&steadyStream{keys: pl.keys, stride: 1}, p.steadyWarmOps)...)
		// The traced list is the feed schedule merged with reads in due-time
		// order: chunk i at i feed periods, then a fixed number of reads drawn
		// against the chunks fed so far, so which read follows which write —
		// and with it which models each read finds dropped — repeats per seed.
		reads := newLiveReads(p, pl.keys, feed, seed)
		for i, chunk := range feed.chunks {
			pl.serial = append(pl.serial, tracedOp{op: chunk, due: time.Duration(i) * p.feedPeriod, paced: true})
			for k := 0; k < p.tracedReadsPerChunk; k++ {
				pl.serial = append(pl.serial, tracedOp{op: reads.next(i + 1)})
			}
		}
	case wlImportRestart:
		// First touch: one cold query per device, in a seeded order, at a
		// moment the device was inside (so it runs both stages).
		devices := shuffledDevices(ds, seed, streamFirstTouch)
		var err error
		if pl.firstTouch, err = sampleQueries(ds, devices, len(devices), 1, week, weekEnd, seed, streamFirstTouch); err != nil {
			return nil, err
		}
		for _, q := range pl.firstTouch {
			pl.serial = append(pl.serial, tracedOp{op: locateOp(q.Device, q.Time)})
		}
		// The crash check asks about few devices within one morning hour:
		// every device a query touches costs a model training, before the
		// crash and again after it.
		hour := week.Add(10 * time.Hour)
		pl.checks, err = sampleQueries(ds, shuffledDevices(ds, seed, streamCheck)[:min(p.checkDevices, len(ds.People))], p.checkAnswers, 1, hour, hour.Add(time.Hour), seed, streamCheck)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	n := max(p.scoreQueries-len(pl.firstTouch), 1)
	if pl.feed == nil {
		var err error
		pl.scored, err = sampleQueries(ds, nil, n, scoreInsideBias, week, weekEnd, seed, streamScore)
		return pl, err
	}
	// live-mixed is scored after the run. A quarter of its queries fall in
	// the window the feed replayed, where cleansing the dirty feed decides
	// the answer; that window is under half an hour of stays, too few for a
	// precision that repeats across seeds, so the rest are the week's. An
	// inside-biased query lands anywhere in a stay that overlaps the window,
	// and a stay outlasts the window: sample more and keep what the feed
	// has covered.
	from, to := pl.feed.replayedWindow(p)
	wide, err := sampleQueries(ds, nil, 8*n, scoreInsideBias, from, to, seed, streamScoreReplayed)
	if err != nil {
		return nil, err
	}
	for _, q := range wide {
		if len(pl.scored) < n/4 && !q.Time.Before(from) && !q.Time.After(to) {
			pl.scored = append(pl.scored, q)
		}
	}
	pl.replayed = len(pl.scored)
	settled, err := sampleQueries(ds, nil, n-pl.replayed, scoreInsideBias, week, weekEnd, seed, streamScore)
	pl.scored = append(pl.scored, settled...)
	return pl, err
}

// digest identifies the plan's op lists: the warm-up, the serial list, the
// scored queries.
func (pl *plan) digest() string {
	h := newOpHasher()
	for _, op := range pl.warm {
		h.add(op)
	}
	for _, t := range pl.serial {
		h.add(t.op)
	}
	for _, q := range pl.scored {
		h.add(locateOp(q.Device, q.Time))
	}
	return h.sum()
}

// sampleQueries samples n queries with ground truth in [from, to) over
// devices (round-robin, so n = len(devices) gives one query per device; nil
// means all). insideBias is the share of queries forced to moments the
// device was truly inside: 1 makes every query run both stages,
// scoreInsideBias is the skew of the paper's ground truth.
func sampleQueries(ds *sim.Dataset, devices []event.DeviceID, n int, insideBias float64, from, to time.Time, seed int64, stream int) ([]eval.Query, error) {
	return eval.SampleQueries(ds, eval.WorkloadOptions{
		NumQueries: n, Seed: seed*1_000_003 + int64(stream), Devices: devices,
		From: from, To: to, DaytimeOnly: true, InsideBias: insideBias,
	})
}

const scoreInsideBias = 0.75

// shuffledDevices returns the dataset's devices in a seeded order.
func shuffledDevices(ds *sim.Dataset, seed int64, stream int) []event.DeviceID {
	devices := devicesOf(ds)
	newRand(seed, stream, 0).Shuffle(len(devices), func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	return devices
}
