package dd

import (
	"reflect"
	"strconv"
	"testing"
)

// statsGauges are the snapshot-time gauges of Stats: Delta keeps their
// current value, every other field is a counter.
var statsGauges = map[string]bool{
	"UniqueLoadV": true, "UniqueLoadM": true, "FreeNodesV": true,
	"FreeNodesM": true, "LiveNodes": true, "ComplexValues": true,
}

// statsLeaves returns every numeric field of s by path, the entries of
// Tables included (as "Tables[i].Lookups"), as float64.
func statsLeaves(t *testing.T, s Stats) map[string]float64 {
	out := map[string]float64{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			out[path] = float64(v.Uint())
		case reflect.Int:
			out[path] = float64(v.Int())
		case reflect.Float64:
			out[path] = v.Float()
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(path+"["+strconv.Itoa(i)+"]", v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, v.Field(i))
			}
		default:
			t.Fatalf("Stats field %s has kind %s; extend the test", path, v.Kind())
		}
	}
	walk("", reflect.ValueOf(s))
	return out
}

// distinctStats sets every numeric field of a Stats, Tables entries
// included, to base, base+1, … and then derives the aggregate
// compute-table fields from Tables, as a package snapshot does.
func distinctStats(base int) Stats {
	var s Stats
	n := base
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Int:
			v.SetInt(int64(n))
		case reflect.Float64:
			v.SetFloat(float64(n))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
			return
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
			return
		}
		n++
	}
	fill(reflect.ValueOf(&s).Elem())
	s.sumTables()
	return s
}

// TestStatsAddDeltaCoverEveryField checks Add and Delta field by field
// through reflection, so a Stats field either of them leaves out
// fails here: Add sums every field; Delta subtracts every counter,
// clamps a counter that went backwards to its current value instead
// of wrapping, and keeps every gauge's current value.
func TestStatsAddDeltaCoverEveryField(t *testing.T) {
	big, small := distinctStats(1000), distinctStats(1)
	bigL, smallL := statsLeaves(t, big), statsLeaves(t, small)
	if len(bigL) < 2*int(NumTables) {
		t.Fatalf("only %d leaves", len(bigL))
	}
	check := func(op string, got Stats, want func(path string) float64) {
		t.Helper()
		for path, v := range statsLeaves(t, got) {
			if w := want(path); v != w {
				t.Errorf("%s: %s = %v, want %v", op, path, v, w)
			}
		}
	}
	check("Add", big.Add(small), func(path string) float64 { return bigL[path] + smallL[path] })
	check("Delta", big.Delta(small), func(path string) float64 {
		if statsGauges[path] {
			return bigL[path]
		}
		return bigL[path] - smallL[path]
	})
	// Every counter went backwards (a fresh package): clamp, not wrap.
	check("Delta after a reset", small.Delta(big), func(path string) float64 { return smallL[path] })
	for name := range statsGauges {
		if _, ok := bigL[name]; !ok {
			t.Errorf("gauge %s is not a Stats field", name)
		}
	}
}
