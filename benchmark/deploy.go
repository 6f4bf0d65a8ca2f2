package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"locater"
	"locater/internal/eval"
	"locater/internal/event"
	"locater/internal/sim"
	"locater/internal/space"
	"locater/internal/srv"
)

// generate builds the benchmark dataset: the paper's DBH stand-in building
// with p.perClass people per predictability class, the same on every run.
// The engine under test sees generated events only.
func generate(p params) (*sim.Dataset, error) {
	sc, err := sim.DBH(p.perClass)
	if err != nil {
		return nil, err
	}
	return sim.Generate(sc.Config(simStart, p.days, datasetSeed))
}

// engineConfig is the deployment under test, exactly as
// `locater-serve -data-dir D` assembles it. Only live-mixed turns cleansing
// on (its feed is dirty); no other field is ever set.
func engineConfig(b *space.Building, cleansing bool) locater.Config {
	return locater.Config{
		Building:           b,
		Variant:            locater.DependentVariant,
		EnableCache:        true,
		PromotionsPerRound: 8,
		ColdTierMmap:       true,
		EnableCleansing:    cleansing,
	}
}

// persistOptions is the one flush policy every workload uses: fsync per
// commit, checkpoints only where the workload calls them.
var persistOptions = locater.PersistOptions{Fsync: true}

// opener assembles an engine on a data directory, recovering whatever the
// directory holds: locater.Open for the program, openRig for the traced twin.
type opener func(dir string) (locater.Locater, error)

func systemOpener(cfg locater.Config) opener {
	return func(dir string) (locater.Locater, error) {
		return locater.Open(dir, cfg, persistOptions)
	}
}

// importStats is what one import cycle measured.
type importStats struct {
	events      int     // events acknowledged
	bulkBatchNs []int64 // wall time of each full bulk batch
	tailAckNs   []int64 // ack latency of each tail batch
	diskBytes   int64   // bytes under dir after Checkpoint
	logBytes    int64   // write-ahead log bytes before Checkpoint compacts it
	snapBytes   int64   // snapshot bytes after Checkpoint
	// stats are the importing engine's counters when the cycle ended.
	stats locater.CacheStats
}

// importCycle is the day-0 import every workload starts from: open a fresh
// directory, ingest the first p.bulkShare of the history in p.bulkBatch-event
// batches, EstimateDeltas, Checkpoint, then the remainder in p.tailBatch-event
// batches so a crash leaves a log tail to replay. The engine is returned
// open; the caller abandons it (no Close) to simulate the crash.
func importCycle(p params, open opener, dir string, events []event.Event) (locater.Locater, importStats, error) {
	var st importStats
	eng, err := open(dir)
	if err != nil {
		return nil, st, fmt.Errorf("opening %s: %w", dir, err)
	}
	split := int(float64(len(events)) * p.bulkShare)
	for i := 0; i < split; i += p.bulkBatch {
		j := min(i+p.bulkBatch, split)
		t0 := time.Now()
		if err := eng.Ingest(events[i:j]); err != nil {
			return nil, st, fmt.Errorf("bulk ingest at %d: %w", i, err)
		}
		if j-i == p.bulkBatch {
			st.bulkBatchNs = append(st.bulkBatchNs, int64(time.Since(t0)))
		}
	}
	if err := eng.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		return nil, st, fmt.Errorf("estimating deltas: %w", err)
	}
	st.logBytes = dirBytes(dir, func(name string) bool { return strings.HasPrefix(name, "wal-") })
	if err := eng.Checkpoint(); err != nil {
		return nil, st, fmt.Errorf("checkpoint: %w", err)
	}
	st.diskBytes = dirBytes(dir, nil)
	st.snapBytes = dirBytes(dir, func(name string) bool { return strings.HasSuffix(name, ".snap") })
	for i := split; i < len(events); i += p.tailBatch {
		j := min(i+p.tailBatch, len(events))
		t0 := time.Now()
		if err := eng.Ingest(events[i:j]); err != nil {
			return nil, st, fmt.Errorf("tail ingest at %d: %w", i, err)
		}
		st.tailAckNs = append(st.tailAckNs, int64(time.Since(t0)))
	}
	st.events = eng.NumEvents()
	st.stats = eng.CacheStats()
	return eng, st, nil
}

// dirBytes sums the sizes of the regular files under dir whose base name
// passes keep (nil keeps all).
func dirBytes(dir string, keep func(name string) bool) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || (keep != nil && !keep(d.Name())) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// heapAfterGC returns HeapAlloc after two collections (the second frees
// what finalizers of the first released).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// residentBytes is the deployment's memory footprint: heap grown since
// baseline (taken before Open, dataset already generated) plus the cold
// tier's mapped bytes, which the heap does not see.
func residentBytes(eng locater.Locater, baseline uint64) float64 {
	heap := float64(heapAfterGC()) - float64(baseline)
	if heap < 0 {
		heap = 0
	}
	return heap + float64(eng.CacheStats().Segments.Backend.MappedBytes)
}

// --- in-process HTTP client ---------------------------------------------------

// client drives a srv.Server through ServeHTTP: no sockets, as
// locater-loadgen's in-process driver does.
type client struct {
	h http.Handler
}

// do executes one request and returns the status and the response body.
func (c client) do(method, path string, body []byte) (int, []byte) {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// request renders an op as an HTTP request; every request carries deadlineMs.
type request struct {
	method, path string
	body         []byte
}

func locatePath(d event.DeviceID, t time.Time, deadlineMs int64) string {
	// Device IDs and RFC 3339 UTC times need escaping only for ':', which a
	// query value may carry verbatim.
	return fmt.Sprintf("/v1/locate?device=%s&time=%s&deadline_ms=%d", d, t.UTC().Format(time.RFC3339), deadlineMs)
}

func buildRequest(op sim.Op, deadline time.Duration) request {
	ms := deadline.Milliseconds()
	switch op.Kind {
	case sim.OpLocate:
		return request{method: http.MethodGet, path: locatePath(op.Query.Device, op.Query.Time, ms)}
	case sim.OpBatch:
		// workers is pinned to 1: LocateBatch answers depend on merge order
		// at workers>1 (ROADMAP item 4c), and the benchmark needs answers
		// that repeat per seed.
		in := srv.BatchLocateRequest{Queries: make([]srv.BatchQuery, len(op.Batch)), Workers: 1, DeadlineMillis: int(ms)}
		for i, q := range op.Batch {
			in.Queries[i] = srv.BatchQuery{Device: string(q.Device), Time: q.Time.UTC().Format(time.RFC3339)}
		}
		b, _ := json.Marshal(in) // plain strings and ints cannot fail to marshal
		return request{method: http.MethodPost, path: "/v1/locate/batch", body: b}
	default:
		rows := make([]srv.IngestEvent, len(op.Events))
		for i, e := range op.Events {
			rows[i] = srv.IngestEvent{Device: string(e.Device), Time: e.Time.UTC().Format(time.RFC3339Nano), AP: string(e.AP)}
		}
		b, _ := json.Marshal(rows)
		return request{method: http.MethodPost, path: fmt.Sprintf("/v1/ingest?deadline_ms=%d", ms), body: b}
	}
}

// --- correctness --------------------------------------------------------------

// checker counts attempted and failed operations and remembers the first few
// reasons, so a failing run says why.
type checker struct {
	attempted, failed int
	reasons           []string
	// rooms[region] is the set of rooms the region covers.
	rooms map[space.RegionID]map[space.RoomID]bool
	// onAnswer, when set, sees every checked single-locate answer.
	onAnswer func(q sim.LocateQuery, r srv.LocateResponse)
}

func newChecker(b *space.Building) *checker {
	c := &checker{rooms: make(map[space.RegionID]map[space.RoomID]bool)}
	for _, g := range b.Regions() {
		set := make(map[space.RoomID]bool)
		for _, r := range b.CandidateRooms(g) {
			set[r] = true
		}
		c.rooms[g] = set
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// merge folds a per-goroutine checker into c.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, r := range o.reasons {
		if len(c.reasons) < 8 {
			c.reasons = append(c.reasons, r)
		}
	}
}

func (c *checker) fork() *checker { return &checker{rooms: c.rooms} }

// answer checks one decoded localization answer: an inside answer must name
// a room its region covers.
func (c *checker) answer(r srv.LocateResponse) bool {
	if r.Outside {
		return true
	}
	if !c.rooms[space.RegionID(r.Region)][space.RoomID(r.Room)] {
		c.fail("device %s at %s: room %q is not covered by region %q", r.Device, r.Time, r.Room, r.Region)
		return false
	}
	return true
}

// response checks one HTTP response to op (status, decodability, room in
// region, latency against the deadline) and returns how many locate answers
// it carried. It counts one attempted operation.
func (c *checker) response(op sim.Op, status int, body []byte, latency, deadline time.Duration) int {
	c.attempted++
	if status < 200 || status > 299 {
		c.fail("%s: HTTP %d: %s", op.Kind, status, bytes.TrimSpace(body))
		return 0
	}
	if latency > deadline {
		c.fail("%s: answered after %v, deadline %v", op.Kind, latency, deadline)
		return 0
	}
	switch op.Kind {
	case sim.OpLocate:
		var r srv.LocateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail("locate: undecodable response: %v", err)
			return 0
		}
		if !c.answer(r) {
			return 0
		}
		if c.onAnswer != nil {
			c.onAnswer(op.Query, r)
		}
		return 1
	case sim.OpBatch:
		var r srv.BatchLocateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail("batch: undecodable response: %v", err)
			return 0
		}
		if len(r.Results) != len(op.Batch) {
			c.fail("batch: %d results for %d queries", len(r.Results), len(op.Batch))
			return 0
		}
		for _, br := range r.Results {
			if br.Error != "" {
				c.fail("batch: query failed: %s", br.Error)
				return 0
			}
			if !c.answer(br.LocateResponse) {
				return 0
			}
		}
		return len(r.Results)
	default:
		var r map[string]int
		if err := json.Unmarshal(body, &r); err != nil {
			c.fail("ingest: undecodable response: %v", err)
		}
		return 0
	}
}

// --- warm-up and scoring ------------------------------------------------------

// serveOps sends ops serially, checking every response.
func serveOps(c client, chk *checker, ops []sim.Op, deadline time.Duration) {
	for _, op := range ops {
		req := buildRequest(op, deadline)
		t0 := time.Now()
		status, body := c.do(req.method, req.path, req.body)
		chk.response(op, status, body, time.Since(t0), deadline)
	}
}

// scoreServed serves the queries serially and scores the answers a client
// receives against their ground truth. A query that fails is counted by chk
// and left out of the score.
func scoreServed(c client, chk *checker, b *space.Building, queries []eval.Query, deadline time.Duration) eval.Precision {
	var pr eval.Precision
	scorer := chk.fork()
	for i := range queries {
		scorer.onAnswer = func(_ sim.LocateQuery, r srv.LocateResponse) {
			pr.Add(eval.Score(b, fixedAnswer(r), queries[i:i+1]))
		}
		serveOps(c, scorer, []sim.Op{locateOp(queries[i].Device, queries[i].Time)}, deadline)
	}
	chk.merge(scorer)
	return pr
}

// fixedAnswer is an eval.System that gives one decoded answer.
func fixedAnswer(r srv.LocateResponse) eval.System {
	return eval.SystemFunc(func(eval.Query) (eval.Answer, error) {
		return eval.Answer{Outside: r.Outside, Region: space.RegionID(r.Region), Room: space.RoomID(r.Room)}, nil
	})
}

// newOutDir creates a fresh working directory for one run under out.
func newOutDir(out, label string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, label+"-")
}
