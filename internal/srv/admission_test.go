package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

// newTinyServer builds a server over a small office dataset (cheap compared
// to the DBH fixture) with explicit admission bounds, for overload tests.
func newTinyServer(t testing.TB, opts Options) (*Server, *sim.Dataset) {
	t.Helper()
	sc, err := sim.Office(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := locater.New(locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		HistoryDays:        3,
		PromotionsPerRound: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	return NewWithOptions(sys, opts), ds
}

func getLocate(s *Server, device string, tq time.Time, extra string) *httptest.ResponseRecorder {
	url := fmt.Sprintf("/v1/locate?device=%s&time=%s%s", device, tq.Format(time.RFC3339), extra)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func errCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, rec.Body)
	}
	return body.Code
}

// TestAdmitQueueRejections drives the queue through all three rejection
// rules deterministically (slots held by hand, no racing requests).
func TestAdmitQueueRejections(t *testing.T) {
	q := newAdmitQueue(QueueConfig{MaxConcurrent: 1, MaxQueue: 2}, 2*time.Second)
	ctx := context.Background()

	// Free slot: admitted immediately.
	release, rej := q.admit(ctx, -1, 0)
	if rej != nil {
		t.Fatalf("idle queue rejected: %+v", rej)
	}

	// Slot busy: one waiter fits (start it in a goroutine), the queue has
	// room for a second, the third is turned away.
	type admitRes struct {
		release func(time.Duration)
		rej     *admitError
	}
	waiter := make(chan admitRes, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r, e := q.admit(ctx, -1, 0)
			waiter <- admitRes{r, e}
		}()
	}
	deadlineT := time.Now().Add(5 * time.Second)
	for q.queued.Load() < 2 {
		if time.Now().After(deadlineT) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, rej = q.admit(ctx, -1, 0)
	if rej == nil || rej.code != codeQueueFull || rej.status != 429 {
		t.Fatalf("overfull queue: got %+v, want 429 %s", rej, codeQueueFull)
	}
	if rej.retryAfter < time.Second {
		t.Errorf("queue_full Retry-After = %v, want ≥ 1s", rej.retryAfter)
	}

	// Shed: a batch-style admit (shedAbove=0.4) sheds at 1/2 occupancy
	// even though the queue is not full — and also on peer pressure alone.
	release(10 * time.Millisecond) // free the slot; one waiter takes it
	first := <-waiter
	if first.rej != nil {
		t.Fatalf("queued waiter rejected: %+v", first.rej)
	}
	// Queue now holds 1 waiter (occupancy 0.5 of 2).
	_, rej = q.admit(ctx, 0.4, 0)
	if rej == nil || rej.code != codeShed {
		t.Fatalf("shed admit: got %+v, want %s", rej, codeShed)
	}
	// With its own queue empty, peer occupancy alone sheds too.
	q2 := newAdmitQueue(QueueConfig{MaxConcurrent: 1, MaxQueue: 2}, 2*time.Second)
	q2.slots <- struct{}{} // saturate so admit reaches the shed check
	_, rej = q2.admit(ctx, 0.4, 0.9)
	if rej == nil || rej.code != codeShed {
		t.Fatalf("peer-pressure shed: got %+v, want %s", rej, codeShed)
	}
	<-q2.slots

	// Deadline-infeasible: with a primed EWMA, a deadline shorter than the
	// expected wait is rejected before queueing.
	dctx, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // expired before admission
	_, rej = q.admit(dctx, -1, 0)
	if rej == nil || rej.code != codeDeadlineInfeasible {
		t.Fatalf("expired-deadline admit: got %+v, want %s", rej, codeDeadlineInfeasible)
	}
	// EWMA is primed from release(10ms): a 1ms-from-now deadline cannot
	// cover the ~10ms expected wait with one request already queued.
	dctx2, cancel2 := context.WithTimeout(ctx, time.Millisecond)
	defer cancel2()
	_, rej = q.admit(dctx2, -1, 0)
	if rej == nil || (rej.code != codeDeadlineInfeasible && rej.code != codeDeadlineQueue) {
		t.Fatalf("infeasible-deadline admit: got %+v", rej)
	}

	// Drain: free the slot, the remaining waiter completes, gauges return
	// to zero.
	first.release(time.Millisecond)
	second := <-waiter
	if second.rej != nil {
		t.Fatalf("second waiter rejected: %+v", second.rej)
	}
	second.release(time.Millisecond)
	if got := q.queued.Load(); got != 0 {
		t.Errorf("queued after drain = %d", got)
	}
	if got := len(q.slots); got != 0 {
		t.Errorf("in-flight after drain = %d", got)
	}
}

// TestOverloadDegradesGracefully saturates a 1-slot server with concurrent
// requests and asserts the admission contract: every response is 200, 429
// (with Retry-After), or 504; at least one request is rejected; the requests
// the queue admitted are served once the slot frees (goodput survives
// overload); queue wait is bounded by the deadline; counters in /v1/stats
// reconcile and stay monotone; and the server drains to zero
// queued/in-flight with no leaked goroutines. Run under -race in CI.
func TestOverloadDegradesGracefully(t *testing.T) {
	s, ds := newTinyServer(t, Options{Admission: AdmissionOptions{
		Locate:          QueueConfig{MaxConcurrent: 1, MaxQueue: 2},
		Batch:           QueueConfig{MaxConcurrent: 1, MaxQueue: 2},
		Ingest:          QueueConfig{MaxConcurrent: 1, MaxQueue: 2},
		DefaultDeadline: 2 * time.Second,
	}})
	tq := simStart.AddDate(0, 0, 2).Add(11 * time.Hour)

	// Warm every device's model so the burst's queries cost a millisecond,
	// not a training run (the queued ones must finish inside their
	// deadline), then hold the only executing slot by hand so concurrent
	// requests must queue or reject.
	for _, p := range ds.People {
		if rec := getLocate(s, string(p.Device), tq.Add(-time.Hour), ""); rec.Code != http.StatusOK {
			t.Fatalf("warm query = %d: %s", rec.Code, rec.Body)
		}
	}
	before := runtime.NumGoroutine()

	s.locateQ.slots <- struct{}{}
	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryOK := make([]bool, n)
	maxWait := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			// Distinct devices and times defeat the result cache; a
			// 300ms deadline bounds the queue wait.
			dev := ds.People[i%len(ds.People)].Device
			rec := getLocate(s, string(dev), tq.Add(time.Duration(i)*time.Minute), "&deadline_ms=300")
			codes[i] = rec.Code
			maxWait[i] = time.Since(start)
			retryOK[i] = rec.Code != 429 || rec.Header().Get("Retry-After") != ""
		}(i)
	}
	// Give the burst time to queue up, then sample /stats mid-overload for
	// the monotonicity check, release the slot, and drain.
	time.Sleep(50 * time.Millisecond)
	mid := mustStats(t, s).Admission.Locate
	<-s.locateQ.slots
	wg.Wait()

	saw := map[int]int{}
	for i, c := range codes {
		saw[c]++
		switch c {
		case http.StatusOK, 429, http.StatusGatewayTimeout:
		default:
			t.Fatalf("request %d: unexpected status %d", i, c)
		}
		if !retryOK[i] {
			t.Errorf("request %d: 429 without Retry-After", i)
		}
		// Queue wait is bounded: deadline 300ms plus service/scheduling
		// slack — nothing waits unboundedly.
		if maxWait[i] > 3*time.Second {
			t.Errorf("request %d waited %v, want bounded by deadline", i, maxWait[i])
		}
	}
	if saw[429] == 0 {
		t.Errorf("no 429s under 24-way overload of a 1-slot server: %v", saw)
	}
	// Goodput: every request parked in the queue when the slot freed was
	// served, not starved behind the burst.
	if mid.Queued == 0 || saw[http.StatusOK] < mid.Queued {
		t.Errorf("%d requests queued mid-overload, %d served: %v", mid.Queued, saw[http.StatusOK], saw)
	}

	after := mustStats(t, s).Admission.Locate
	// Counters are cumulative: the post-drain sample dominates the
	// mid-overload one in every component.
	if after.Admitted < mid.Admitted || after.RejectedQueueFull < mid.RejectedQueueFull ||
		after.RejectedDeadline < mid.RejectedDeadline || after.TimedOutInQueue < mid.TimedOutInQueue {
		t.Errorf("admission counters not monotone: mid %+v, after %+v", mid, after)
	}
	rejected := after.RejectedQueueFull + after.RejectedDeadline + after.RejectedShed + after.TimedOutInQueue
	if int(rejected) != saw[429] {
		t.Errorf("stats rejected = %d, saw %d 429s", rejected, saw[429])
	}
	if after.Queued != 0 || after.InFlight != 0 {
		t.Errorf("gauges after drain: queued=%d in_flight=%d", after.Queued, after.InFlight)
	}

	// No goroutine leak: everything spawned for the burst exits.
	deadlineT := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadlineT) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after drain = %d, baseline %d", got, before)
	}
}

// TestBatchShedsBeforeLocate: with the batch class under pressure, batch
// requests get 429 code=shed while single locates keep flowing.
func TestBatchShedsBeforeLocate(t *testing.T) {
	s, ds := newTinyServer(t, Options{Admission: AdmissionOptions{
		Batch:       QueueConfig{MaxConcurrent: 1, MaxQueue: 2},
		ShedBatchAt: 0.4,
	}})
	tq := simStart.AddDate(0, 0, 2).Add(11 * time.Hour)

	// Saturate the batch class's only slot; the next batch request lands
	// in the queue at occupancy 1/2 > 0.4 and is shed.
	s.batchQ.slots <- struct{}{}
	body, _ := json.Marshal(BatchLocateRequest{Queries: []BatchQuery{
		{Device: string(ds.People[0].Device), Time: tq.Format(time.RFC3339)},
	}})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate/batch", bytes.NewReader(body)))
	if rec.Code != 429 {
		t.Fatalf("batch under pressure = %d: %s", rec.Code, rec.Body)
	}
	if code := errCode(t, rec); code != codeShed {
		t.Errorf("batch rejection code = %q, want %q", code, codeShed)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	// Single locate still flows.
	if rec := getLocate(s, string(ds.People[0].Device), tq, ""); rec.Code != http.StatusOK {
		t.Errorf("locate during batch shed = %d: %s", rec.Code, rec.Body)
	}
	<-s.batchQ.slots

	st := mustStats(t, s).Admission
	if st.Batch.RejectedShed != 1 {
		t.Errorf("batch rejected_shed = %d, want 1", st.Batch.RejectedShed)
	}
	if st.Locate.RejectedShed != 0 {
		t.Errorf("locate rejected_shed = %d, want 0", st.Locate.RejectedShed)
	}
}

// TestDeadlineEndToEnd: deadline_ms must propagate into the engine. An
// already-expired request context yields the distinct 504/deadline_exceeded
// (not a 500); an invalid deadline_ms is a 400.
func TestDeadlineEndToEnd(t *testing.T) {
	s, ds := newTinyServer(t, Options{})
	tq := simStart.AddDate(0, 0, 2).Add(11 * time.Hour)
	dev := string(ds.People[0].Device)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	url := fmt.Sprintf("/v1/locate?device=%s&time=%s&deadline_ms=5", dev, tq.Format(time.RFC3339))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(expired))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired locate = %d: %s", rec.Code, rec.Body)
	}
	if code := errCode(t, rec); code != codeDeadlineExceeded {
		t.Errorf("expired locate code = %q, want %q", code, codeDeadlineExceeded)
	}

	// Batch: an expired whole-batch deadline is one 504 as well.
	body, _ := json.Marshal(BatchLocateRequest{Queries: []BatchQuery{
		{Device: dev, Time: tq.Format(time.RFC3339)},
	}, DeadlineMillis: 5})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/locate/batch", bytes.NewReader(body)).WithContext(expired))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired batch = %d: %s", rec.Code, rec.Body)
	}
	if code := errCode(t, rec); code != codeDeadlineExceeded {
		t.Errorf("expired batch code = %q, want %q", code, codeDeadlineExceeded)
	}

	// The engine's deadline counter surfaced in query_stats.
	if got := mustStats(t, s).QueryStats.DeadlineExceeded; got == 0 {
		t.Error("query_stats.deadline_exceeded = 0 after expired queries")
	}

	// Malformed deadline_ms is a 400, not silently ignored.
	for _, bad := range []string{"0", "-5", "abc"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/locate?device=x&deadline_ms="+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("deadline_ms=%s = %d, want 400", bad, rec.Code)
		}
	}

	// A generous deadline on a healthy server stays a 200.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/locate?device=%s&time=%s&deadline_ms=%d",
			dev, tq.Format(time.RFC3339), int((10*time.Second).Milliseconds())), nil))
	if rec.Code != http.StatusOK {
		t.Errorf("generous deadline = %d: %s", rec.Code, rec.Body)
	}
}

// TestRetryAfterRounding pins the Retry-After computation: whole seconds,
// never below 1.
func TestRetryAfterRounding(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{0, 1}, {10 * time.Millisecond, 1}, {time.Second, 1},
		{1100 * time.Millisecond, 2}, {5 * time.Second, 5},
	}
	for _, tc := range cases {
		got := retryAfter(tc.wait)
		if int(got/time.Second) != tc.want {
			t.Errorf("retryAfter(%v) = %v, want %ds", tc.wait, got, tc.want)
		}
	}
	// And the header renders as an integer.
	rec := httptest.NewRecorder()
	writeAdmitError(rec, &admitError{status: 429, code: codeQueueFull, msg: "x", retryAfter: 2 * time.Second})
	if h := rec.Header().Get("Retry-After"); h != "2" {
		t.Errorf("Retry-After header = %q, want \"2\"", h)
	}
	if _, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil {
		t.Errorf("Retry-After not an integer: %v", err)
	}
}

// TestAdaptiveQueueBound pins the Little's-law bound: effective queue depth
// = targetWait × MaxConcurrent / EWMA service time, clamped to [2,
// MaxQueue], with the no-signal (EWMA 0) path falling back to the
// configured bound.
func TestAdaptiveQueueBound(t *testing.T) {
	q := newAdmitQueue(QueueConfig{MaxConcurrent: 4, MaxQueue: 64}, 2*time.Second)

	// No service-time signal yet: the configured bound applies.
	if got := q.effectiveMaxQueue(); got != 64 {
		t.Fatalf("effectiveMaxQueue with EWMA 0 = %d, want 64", got)
	}
	// Fast service (10ms): the wait target allows far more than MaxQueue,
	// so the configured bound still clamps.
	q.ewmaNs.Store(int64(10 * time.Millisecond))
	if got := q.effectiveMaxQueue(); got != 64 {
		t.Fatalf("effectiveMaxQueue fast = %d, want clamp to 64", got)
	}
	// Slow service (500ms): 2s × 4 / 500ms = 16 waiters keep the worst
	// queue wait at the target.
	q.ewmaNs.Store(int64(500 * time.Millisecond))
	if got := q.effectiveMaxQueue(); got != 16 {
		t.Fatalf("effectiveMaxQueue slow = %d, want 16", got)
	}
	// Pathological service (10s): the floor keeps a minimal queue.
	q.ewmaNs.Store(int64(10 * time.Second))
	if got := q.effectiveMaxQueue(); got != 2 {
		t.Fatalf("effectiveMaxQueue pathological = %d, want floor 2", got)
	}
}

// TestAdaptiveQueueRejectsAtBound drives a queue whose EWMA shrinks the
// effective bound below the configured one and checks the queue-full
// rejection fires at the adaptive bound.
func TestAdaptiveQueueRejectsAtBound(t *testing.T) {
	q := newAdmitQueue(QueueConfig{MaxConcurrent: 1, MaxQueue: 32}, time.Second)
	q.ewmaNs.Store(int64(500 * time.Millisecond)) // bound = 1s×1/500ms = 2
	ctx := context.Background()

	release, rej := q.admit(ctx, -1, 0)
	if rej != nil {
		t.Fatalf("idle queue rejected: %+v", rej)
	}
	defer release(time.Millisecond)
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			r, e := q.admit(ctx, -1, 0)
			if e == nil {
				defer r(time.Millisecond)
			}
			<-done
		}()
	}
	deadlineT := time.Now().Add(5 * time.Second)
	for q.queued.Load() < 2 {
		if time.Now().After(deadlineT) {
			t.Fatal("waiters never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, rej = q.admit(ctx, -1, 0)
	close(done)
	if rej == nil || rej.code != codeQueueFull {
		t.Fatalf("admit beyond adaptive bound: got %+v, want %s (configured bound is 32)", rej, codeQueueFull)
	}
}

// TestAdmissionStatsReportAdaptiveBound checks /v1/stats surfaces the
// configured and the effective bound.
func TestAdmissionStatsReportAdaptiveBound(t *testing.T) {
	s, _ := newTinyServer(t, Options{Admission: AdmissionOptions{
		Locate:          QueueConfig{MaxConcurrent: 2, MaxQueue: 16},
		TargetQueueWait: time.Second,
	}})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var body struct {
		Admission struct {
			Locate struct {
				MaxQueue          int `json:"max_queue"`
				EffectiveMaxQueue int `json:"effective_max_queue"`
			} `json:"locate"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	l := body.Admission.Locate
	if l.MaxQueue != 16 || l.EffectiveMaxQueue != 16 {
		t.Errorf("bounds = %d/%d, want 16/16 before any service-time signal", l.MaxQueue, l.EffectiveMaxQueue)
	}
}
