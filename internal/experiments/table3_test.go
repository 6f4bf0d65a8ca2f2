package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/table3.golden")

// table3Params is the fixed-seed scale the Table 3 gate runs at: 16 people,
// four weeks, 200 queries per group.
var table3Params = Params{PerClass: 4, Days: 28, Queries: 200, Seed: 1, Fast: true}

// minRoomMargin is the recorded margin, in percentage points of room (fine)
// precision averaged over the four predictability groups, by which both
// LOCATER variants must beat both baselines. Seed 1 measures 9.5 points
// (I-LOCATER 75.25 against Baseline2 65.75); the gate leaves room for an
// answer change that re-records the golden without losing the paper's
// result.
const minRoomMargin = 5.0

// TestTable3Golden gates the paper's headline result: every cell of Table 3
// equals the committed golden, and I-LOCATER and D-LOCATER beat Baseline1
// and Baseline2 on room precision by at least minRoomMargin. Run with
// -update to re-record the golden after a deliberate answer change.
func TestTable3Golden(t *testing.T) {
	tables, err := Table3Groups(table3Params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tables[0].Fprint(&buf)
	path := filepath.Join("testdata", "table3.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("Table 3 differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}

	room := make(map[string]float64)
	for _, row := range tables[0].Rows {
		room[row[0]] = meanRoomPrecision(t, row[1:])
	}
	for _, v := range []string{"I-LOCATER", "D-LOCATER"} {
		for _, b := range []string{"Baseline1", "Baseline2"} {
			if margin := room[v] - room[b]; margin < minRoomMargin {
				t.Errorf("%s room precision %.2f beats %s's %.2f by %.2f points, want ≥ %.1f",
					v, room[v], b, room[b], margin, minRoomMargin)
			}
		}
	}
}

// meanRoomPrecision averages the Pf field of a row's "Pc|Pf|Po" cells.
func meanRoomPrecision(t *testing.T, cells []string) float64 {
	t.Helper()
	sum := 0.0
	for _, c := range cells {
		f := strings.Split(c, "|")
		if len(f) != 3 {
			t.Fatalf("cell %q is not Pc|Pf|Po", c)
		}
		pf, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("cell %q: %v", c, err)
		}
		sum += pf
	}
	return sum / float64(len(cells))
}
