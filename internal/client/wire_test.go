package client

import (
	"reflect"
	"testing"

	"locater"
	"locater/internal/srv"
)

// fillDistinct sets every numeric field reachable from the struct v points
// to — nested structs included — to its own non-zero value (1, 2, 3, …) and
// every bool to true, so a field that a copy, a merge or the wire drops is
// visibly different from the original.
func fillDistinct(v any) {
	next := 0
	var fill func(reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i))
			}
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			next++
			f.SetInt(int64(next))
		case reflect.Float64:
			next++
			f.SetFloat(float64(next))
		default:
			panic("fillDistinct: unhandled kind " + f.Kind().String() + " in " + f.Type().String())
		}
	}
	fill(reflect.ValueOf(v).Elem())
}

// statsEngine is an engine that answers only what GET /v1/stats asks of it.
type statsEngine struct {
	locater.Locater
	caches  locater.CacheStats
	queries locater.QueryStats
}

func (e statsEngine) NumEvents() int                            { return 1 }
func (e statsEngine) NumDevices() int                           { return 1 }
func (e statsEngine) NumQueries() int                           { return 1 }
func (e statsEngine) Building() *locater.Building               { return nil }
func (e statsEngine) CacheStats() locater.CacheStats            { return e.caches }
func (e statsEngine) QueryStats() locater.QueryStats            { return e.queries }
func (e statsEngine) PersistStats() (int, uint64, uint64, bool) { return 0, 0, 0, false }

// TestStatsSurviveTheWire: every counter the engine reports reaches a remote
// caller unchanged. The server marshals the engine's structs and the client
// unmarshals into the same types, so the only way to lose a field is to give
// it no JSON tag or a tag another field already uses.
func TestStatsSurviveTheWire(t *testing.T) {
	var e statsEngine
	fillDistinct(&e.caches)
	fillDistinct(&e.queries)
	c := serve(t, srv.New(e))
	if got := c.CacheStats(); !reflect.DeepEqual(got, e.caches) {
		t.Errorf("CacheStats over the wire:\n got %+v\nwant %+v", got, e.caches)
	}
	if got := c.QueryStats(); !reflect.DeepEqual(got, e.queries) {
		t.Errorf("QueryStats over the wire:\n got %+v\nwant %+v", got, e.queries)
	}
}
