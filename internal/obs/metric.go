package obs

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
)

// MergeRule says how two snapshots of one scalar combine into the snapshot
// of both processes together.
type MergeRule uint8

const (
	Sum   MergeRule = iota // numbers add, slices concatenate, maps union
	Max                    // the larger value wins (the oldest process's uptime)
	Min                    // the smaller non-zero value wins (the earliest start)
	First                  // the first non-zero value wins (build identity)
)

// Scope limits a metric to one kind of exposition.
type Scope uint8

const (
	Anywhere   Scope = iota
	PerProcess       // says something about one process; a merged exposition drops it
	FleetWide        // a fleet-wide total of what one process exposes per label
)

// Metric declares one scalar of a stats struct once: the field that holds
// it (which also fixes its JSON key), how /metrics exposes it, and how
// snapshots of it merge.  Everything that handles the scalar — the JSON
// document, the Prometheus exposition, the fleet-wide merge — is driven from
// a []Metric table over that struct, so adding a scalar is a struct field
// and a table row.
type Metric struct {
	Field  string // Go name of the field in the stats struct
	Family string // Prometheus family; "" keeps the scalar off /metrics
	Labels Labels // consecutive rows of one family differ in their labels
	Help   string
	Kind   string // "counter" or "gauge"
	Merge  MergeRule
	Scope  Scope
}

// field resolves a table row against the struct it describes.  A row naming
// a field the struct lacks is a bug in the table, not an input.
func field(v reflect.Value, name string) reflect.Value {
	f := v.FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("obs: metric table names field %q, which %s does not have", name, v.Type()))
	}
	return f
}

// scalar reads a field as a sample value: numbers as themselves, booleans
// as 0/1, maps and slices as their length (an occupancy gauge).
func scalar(f reflect.Value) float64 {
	switch {
	case f.CanInt():
		return float64(f.Int())
	case f.CanUint():
		return float64(f.Uint())
	case f.CanFloat():
		return f.Float()
	case f.Kind() == reflect.Bool:
		if f.Bool() {
			return 1
		}
		return 0
	case f.Kind() == reflect.Map || f.Kind() == reflect.Slice:
		return float64(f.Len())
	}
	panic(fmt.Sprintf("obs: %s field is not a scalar", f.Type()))
}

// Source is one struct a table is read from, with the labels that tell its
// samples from those of the other sources (none for a single source).
type Source struct {
	Labels Labels
	Stats  any // pointer to the struct the table describes
}

// Table emits the table's families at the given scope: one header per run
// of rows sharing a family, then one sample per row and source.
func (pw *Writer) Table(table []Metric, at Scope, sources ...Source) {
	prev := ""
	for _, m := range table {
		if m.Family == "" || (m.Scope != Anywhere && m.Scope != at) {
			continue
		}
		if m.Family != prev {
			pw.Header(m.Family, m.Help, m.Kind)
			prev = m.Family
		}
		for _, src := range sources {
			labels := m.Labels
			if len(src.Labels) > 0 {
				labels = maps.Clone(src.Labels)
				maps.Copy(labels, m.Labels)
			}
			v := scalar(field(reflect.ValueOf(src.Stats).Elem(), m.Field))
			if m.Kind == "counter" {
				pw.Counter(m.Family, labels, uint64(v))
			} else {
				pw.Gauge(m.Family, labels, v)
			}
		}
	}
}

// Histograms emits one histogram family with a sample set per map entry,
// labelled by its key and sorted for stable output.
func (pw *Writer) Histograms(name, help, labelKey string, byLabel map[string]Snapshot) {
	pw.Header(name, help, "histogram")
	for _, k := range slices.Sorted(maps.Keys(byLabel)) {
		snap := byLabel[k]
		pw.Histogram(name, Labels{labelKey: k}, &snap)
	}
}

// Gauges emits one gauge family with a sample per map entry, likewise.
func Gauges[V int64 | uint64](pw *Writer, name, help, labelKey string, byLabel map[string]V) {
	pw.Header(name, help, "gauge")
	for _, k := range slices.Sorted(maps.Keys(byLabel)) {
		pw.Gauge(name, Labels{labelKey: k}, float64(byLabel[k]))
	}
}

// MergeInto folds src into dst — both pointers to the struct the table
// describes — field by field under each row's rule.
func MergeInto(table []Metric, dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, m := range table {
		df, sf := field(d, m.Field), field(s, m.Field)
		switch m.Merge {
		case Sum:
			add(df, sf)
		case Max:
			if less(df, sf) {
				df.Set(sf)
			}
		case Min:
			if !sf.IsZero() && (df.IsZero() || less(sf, df)) {
				df.Set(sf)
			}
		case First:
			if df.IsZero() {
				df.Set(sf)
			}
		}
	}
}

func add(df, sf reflect.Value) {
	switch {
	case df.CanInt():
		df.SetInt(df.Int() + sf.Int())
	case df.CanFloat():
		df.SetFloat(df.Float() + sf.Float())
	case df.Kind() == reflect.Slice:
		df.Set(reflect.AppendSlice(df, sf))
	case df.Kind() == reflect.Map:
		// An empty source leaves a nil destination nil, so an omitempty JSON
		// key stays omitted.
		if sf.Len() > 0 && df.IsNil() {
			df.Set(reflect.MakeMap(df.Type()))
		}
		for it := sf.MapRange(); it.Next(); {
			df.SetMapIndex(it.Key(), it.Value())
		}
	default:
		panic(fmt.Sprintf("obs: cannot sum %s fields", df.Type()))
	}
}

func less(a, b reflect.Value) bool {
	if a.Kind() == reflect.String {
		return a.String() < b.String()
	}
	return scalar(a) < scalar(b)
}
