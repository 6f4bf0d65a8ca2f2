package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names. The text before the first dot is the layer (a package name);
// the table in README.md says which call each one wraps.
const (
	spRequest       = iota // one HTTP request through srv, ServeHTTP entry to return
	spLocate               // Locater.LocateContext
	spBatch                // Locater.LocateBatchContext
	spIngest               // Locater.Ingest
	spCheckpoint           // Locater.Checkpoint
	spOpen                 // opening a data directory (recovery)
	spCoarseLocate         // coarse.Localizer.Locate for the queried device
	spCoarseResolve        // coarse.Localizer.Locate for a neighbor (fine's resolver)
	spCoarseObserve        // coarse.Localizer.ObserveIngest
	spFineLocate           // fine.Localizer.Locate
	spStoreAffinity        // fine's store-backed affinity sweep (the cache's fallback)
	spBatchAffinity        // affgraph.CachedAffinity.(Batch)PairAffinity
	spOrder                // affgraph.Graph.OrderNeighbors
	spMerge                // affgraph.Graph.Merge
	spAffObserve           // affgraph.CachedAffinity.ObserveIngest
	spNeighbors            // store.Store.ActiveDevicesAt
	spStoreIngest          // store.Store.Ingest
	spSegPut               // store.SegmentBackend.Put
	spSegView              // store.ViewBackend.View
	spWalAppend            // wal.WAL.AppendEvents / AppendDelta
	spWalCommit            // wal.WAL.Commit
	spClean                // cleanse.Cleanser.Clean
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRequest:       "srv.request",
	spLocate:        "locater.locate",
	spBatch:         "locater.batch",
	spIngest:        "locater.ingest",
	spCheckpoint:    "locater.checkpoint",
	spOpen:          "locater.open",
	spCoarseLocate:  "coarse.locate",
	spCoarseResolve: "coarse.resolve",
	spCoarseObserve: "coarse.observe_ingest",
	spFineLocate:    "fine.locate",
	spStoreAffinity: "fine.store_affinity",
	spBatchAffinity: "affgraph.batch_affinity",
	spOrder:         "affgraph.order",
	spMerge:         "affgraph.merge",
	spAffObserve:    "affgraph.observe_ingest",
	spNeighbors:     "store.neighbors",
	spStoreIngest:   "store.ingest",
	spSegPut:        "store.segment_put",
	spSegView:       "store.segment_view",
	spWalAppend:     "wal.append",
	spWalCommit:     "wal.commit",
	spClean:         "cleanse.clean",
}

// span is one timed call: nanoseconds since the recorder's epoch, the span
// that caused it (-1 for a root), and the request it belongs to.
type span struct {
	name       int32
	start, end int64
	parent     int32
	req        int32
}

// recorder keeps spans in memory. The traced run is serial — one client, one
// batch worker — so one stack of open spans gives every span its parent even
// when a call hops goroutines; the mutex orders those hops. A nil recorder
// records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int32
	req   int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), req: -1}
}

// begin opens a span under the innermost open span. A span opened with no
// span open starts a new request.
func (r *recorder) begin(name int) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	} else {
		r.req++
	}
	id := int32(len(r.spans))
	r.stack = append(r.stack, id)
	// The clock is read last on entry and first on exit, so the recorder's
	// own bookkeeping lands in the parent's self time, not in this span.
	r.spans = append(r.spans, span{name: int32(name), parent: parent, req: r.req, start: int64(time.Since(r.epoch))})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].end = now
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
}

// mark returns the number of spans recorded so far; summarize(from) then
// covers only what a phase added.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// nameTotals aggregates the spans of one name.
type nameTotals struct {
	count       int
	durNs, self int64
}

// traceSummary is the self-time table of a span range.
type traceSummary struct {
	byName [numSpanNames]nameTotals
	rootNs int64 // total duration of root spans
	selfNs int64 // total self time of all spans: equals rootNs
	spans  int
}

// selfTimes returns each span's self time: its duration minus the part of it
// its children cover. Children of one parent are merged as intervals, so
// overlapping children (there are none in a serial run) would not be
// subtracted twice.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for p, ks := range kids {
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		var covered, hi int64
		hi = spans[p].start
		for _, k := range ks {
			s, e := max(spans[k].start, hi), spans[k].end
			if e > s {
				covered += e - s
				hi = e
			}
		}
		self[p] -= covered
	}
	return self
}

// summarize builds the self-time table of spans[from:to]. The range must
// hold whole request trees (it does when taken between requests).
func (r *recorder) summarize(from, to int) traceSummary {
	part := make([]span, to-from)
	copy(part, r.spans[from:to])
	for i := range part {
		if part[i].parent >= 0 {
			part[i].parent -= int32(from)
		}
	}
	self := selfTimes(part)
	sum := traceSummary{spans: len(part)}
	for i, s := range part {
		t := &sum.byName[s.name]
		t.count++
		t.durNs += s.end - s.start
		t.self += self[i]
		sum.selfNs += self[i]
		if s.parent < 0 {
			sum.rootNs += s.end - s.start
		}
	}
	return sum
}

// tracePass is one pass of a traced run, as written to trace-<workload>.json.
type tracePass struct {
	name string
	rec  *recorder
}

// writeTrace writes the passes' spans as JSON: per pass the span-name table
// and one row [name, start_ns, end_ns, parent, request] per span, parent −1
// for a root, rows indexed from 0 in recording order.
func writeTrace(path, workload string, seed int64, passes []tracePass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	quoted := make([]string, len(spanNames))
	for i, n := range spanNames {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":[%s],\"passes\":[", workload, seed, strings.Join(quoted, ","))
	for pi, p := range passes {
		if pi > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"pass\":%q,\"spans\":[", p.name)
		for i, s := range p.rec.spans {
			if i > 0 {
				w.WriteByte(',')
			}
			if i%8 == 0 {
				w.WriteByte('\n')
			}
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.start, s.end, s.parent, s.req)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
