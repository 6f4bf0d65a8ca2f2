// Command locater-serve exposes a LOCATER deployment — one building's
// system — as an HTTP JSON service: the deployment mode of the paper's
// prototype, where applications (HVAC control, occupancy
// dashboards) query the cleaning engine online while connectivity events
// stream in.
//
// Endpoints (all under /v1/):
//
//	GET  /v1/locate?device=MAC&time=2006-01-02T15:04:05Z → localization result
//	POST /v1/locate/batch  body: {"queries":[{device,time}...], "workers":N}
//	                                                     → batch results, in order
//	POST /v1/ingest  body: JSON array of {device, time, ap} → ingest events
//	GET  /v1/stats                                       → deployment counters
//	GET  /v1/quarantine?limit=N                          → cleansing rejects (-cleansing)
//	GET  /v1/healthz                                     → liveness
//	GET  /debug/pprof/                                   → Go profiler (-pprof only)
//
// Errors come back as the uniform envelope {"code","message",
// "retry_after_ms"?}; see internal/srv.ErrorEnvelope.
//
// -building names one metadata file. A site with several buildings runs one
// locater-serve per building, each with its own -data-dir, behind any HTTP
// router.
//
// With -data-dir the deployment is durable: every acknowledged ingest is
// written ahead to a segmented log under the directory before the HTTP
// response, a background checkpoint compacts the log on -snapshot-interval,
// and a restart — graceful or a kill — recovers the acknowledged state
// before listening. -fsync chooses between machine-crash durability
// (default) and OS-buffered logging.
//
// Usage:
//
//	locater-serve -events data/dbh-events.csv -building data/dbh-building.json -addr :8080
//	locater-serve -building data/dbh-building.json -data-dir /var/lib/locater -fsync -snapshot-interval 5m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"locater"
	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/srv"
)

func main() {
	var (
		eventsPath   = flag.String("events", "", "connectivity CSV to preload (optional; skipped when -data-dir already holds events)")
		buildingPath = flag.String("building", "", "building metadata JSON (required)")
		addr         = flag.String("addr", ":8080", "listen address")
		variant      = flag.String("variant", "dependent", "independent | dependent")
		dataDir      = flag.String("data-dir", "", "directory for the durable event store (WAL + snapshots); empty = in-memory only")
		fsync        = flag.Bool("fsync", true, "with -data-dir: fsync acknowledged writes (group commit); off = flush to OS only")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "with -data-dir: background checkpoint period (0 = only at shutdown)")
		mmapColdTier = flag.Bool("mmap", true, "with -data-dir: memory-map cold-tier segment files (OS-owned residency); off = portable read-at")
		pprofFlag    = flag.Bool("pprof", false, "expose Go's runtime profiler under /debug/pprof/ (off by default; profiling data reveals internals)")

		maxConcurrent   = flag.Int("max-concurrent", 0, "executing /v1/locate slots (default 2×GOMAXPROCS)")
		maxQueue        = flag.Int("max-queue", 0, "cap on waiting /v1/locate requests before 429 (default 8×GOMAXPROCS)")
		defaultDeadline = flag.Duration("default-deadline", 0, "deadline applied to requests without deadline_ms (default 5s)")
		maxDeadline     = flag.Duration("max-deadline", 0, "clamp on client-requested deadlines (default 30s)")
		shedBatchAt     = flag.Float64("shed-batch-at", 0, "queue occupancy above which /v1/locate/batch is shed (default 0.5)")
		targetQueueWait = flag.Duration("target-queue-wait", 0, "worst-case queue wait the admission queue bound aims for (default 2s)")

		cleansing = flag.Bool("cleansing", false, "ingest-time cleansing: dedupe re-associations, drop impossible transitions, flag degenerate devices; rejects land in the quarantine (GET /v1/quarantine)")
	)
	flag.Parse()

	if *buildingPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	v := locater.DependentVariant
	switch *variant {
	case "dependent":
	case "independent":
		v = locater.IndependentVariant
	default:
		fmt.Fprintf(os.Stderr, "unknown -variant %q (want independent or dependent)\n", *variant)
		os.Exit(2)
	}
	bf, err := os.Open(*buildingPath)
	if err != nil {
		log.Fatalf("opening building metadata: %v", err)
	}
	building, err := space.ReadJSON(bf)
	bf.Close()
	if err != nil {
		log.Fatalf("parsing building metadata %s: %v", *buildingPath, err)
	}

	cfg := locater.Config{
		Building:           building,
		Variant:            v,
		EnableCache:        true,
		PromotionsPerRound: 8,
		ColdTierMmap:       *mmapColdTier,
		EnableCleansing:    *cleansing,
	}
	if *cleansing {
		fmt.Println("ingest-time cleansing enabled; quarantine at /v1/quarantine")
	}
	popts := locater.PersistOptions{
		Fsync:            *fsync,
		SnapshotInterval: *snapInterval,
	}
	sys, err := openDeployment(cfg, *dataDir, popts)
	if err != nil {
		log.Fatalf("assembling LOCATER: %v", err)
	}
	if *dataDir != "" {
		if n := sys.NumEvents(); n > 0 {
			fmt.Printf("recovered %d events for %d devices from %s\n", n, sys.NumDevices(), *dataDir)
		}
	}

	// Preload the CSV only into an empty store: with -data-dir, a restart
	// already recovers the events, and re-ingesting the CSV would duplicate
	// them under fresh IDs.
	if *eventsPath != "" && sys.NumEvents() == 0 {
		ef, err := os.Open(*eventsPath)
		if err != nil {
			log.Fatalf("opening events: %v", err)
		}
		events, err := event.ReadCSV(ef)
		ef.Close()
		if err != nil {
			log.Fatalf("parsing events: %v", err)
		}
		if err := sys.Ingest(events); err != nil {
			log.Fatalf("ingesting: %v", err)
		}
		if err := sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
			log.Fatalf("estimating deltas: %v", err)
		}
		fmt.Printf("preloaded %d events for %d devices\n", sys.NumEvents(), sys.NumDevices())
	}

	handler := srv.NewWithOptions(sys, srv.Options{Admission: srv.AdmissionOptions{
		Locate:          srv.QueueConfig{MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue},
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		ShedBatchAt:     *shedBatchAt,
		TargetQueueWait: *targetQueueWait,
	}})
	if *pprofFlag {
		handler.EnablePprof()
		fmt.Printf("pprof enabled at %s/debug/pprof/\n", *addr)
	}
	server := &http.Server{Addr: *addr, Handler: handler}

	// Graceful shutdown: stop accepting requests, drain in-flight ones,
	// then checkpoint and close the durable store so the next start
	// recovers from a snapshot instead of replaying the whole log.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("LOCATER serving %s on %s\n", building.Name(), *addr)
		errCh <- server.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("shutting down…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			log.Printf("draining requests: %v", err)
		}
	}
	if err := sys.Close(); err != nil {
		log.Fatalf("checkpointing event store: %v", err)
	}
}

// openDeployment assembles the engine for cfg.Building: durable with Open,
// recovering what dataDir holds, when dataDir is set, and in memory with New
// otherwise. A dataDir written by a multi-building server holds one
// shard-NNN subdirectory per building instead of a log of its own; it is
// refused, since Open would start an empty store beside the shards' data.
func openDeployment(cfg locater.Config, dataDir string, popts locater.PersistOptions) (*locater.System, error) {
	if dataDir == "" {
		return locater.New(cfg)
	}
	// Glob fails only on a malformed pattern, and this one is constant.
	if shards, _ := filepath.Glob(filepath.Join(dataDir, "shard-[0-9][0-9][0-9]")); len(shards) > 0 {
		return nil, fmt.Errorf("%s holds the per-building shards of a multi-building server: "+
			"run one locater-serve per building with -data-dir set to its shard "+
			"(shard-000 is the first building of the old -building list, shard-001 the second, …): %s",
			dataDir, strings.Join(shards, ", "))
	}
	return locater.Open(dataDir, cfg, popts)
}
