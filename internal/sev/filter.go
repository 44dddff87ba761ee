package sev

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"dcnr/internal/topology"
)

// Filter is the set of predicates one SEV query applies: start year,
// device type, severity, network design, root cause, and the half-open
// start-time window [since, until). The zero Filter matches everything.
// Filters are comparable values; ParseFilter is the query-string grammar
// that builds them, String their canonical encoding, and Query.Where
// applies one to a store.
type Filter struct {
	set          uint8 // one bit per predicate, in filterKeys order
	year         int
	device       topology.DeviceType
	severity     Severity
	design       topology.Design
	cause        RootCause
	since, until float64
}

const (
	fYear uint8 = 1 << iota
	fDevice
	fSeverity
	fDesign
	fCause
	fSince
	fUntil
)

var designs = []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric}

// filterKeys is the grammar: one query-string key per predicate, each
// with its parser and its canonical rendering, in canonical order.
var filterKeys = [...]struct {
	name   string
	bit    uint8
	parse  func(f *Filter, s string) error
	render func(f *Filter) string
}{
	{"year", fYear,
		func(f *Filter, s string) (err error) { f.year, err = strconv.Atoi(s); return err },
		func(f *Filter) string { return strconv.Itoa(f.year) }},
	{"device", fDevice,
		func(f *Filter, s string) (err error) { f.device, err = byName(s, topology.DeviceTypes); return err },
		func(f *Filter) string { return f.device.String() }},
	{"severity", fSeverity, parseSeverity,
		func(f *Filter) string { return strconv.Itoa(int(f.severity)) }},
	{"design", fDesign,
		func(f *Filter, s string) (err error) { f.design, err = byName(s, designs); return err },
		func(f *Filter) string { return f.design.String() }},
	{"cause", fCause,
		func(f *Filter, s string) (err error) { f.cause, err = byName(s, RootCauses); return err },
		func(f *Filter) string { return f.cause.String() }},
	{"since", fSince,
		func(f *Filter, s string) (err error) { f.since, err = parseBound(s); return err },
		func(f *Filter) string { return strconv.FormatFloat(f.since, 'g', -1, 64) }},
	{"until", fUntil,
		func(f *Filter, s string) (err error) { f.until, err = parseBound(s); return err },
		func(f *Filter) string { return strconv.FormatFloat(f.until, 'g', -1, 64) }},
}

// byName matches s case-insensitively against the display names of all.
func byName[T fmt.Stringer](s string, all []T) (T, error) {
	for _, v := range all {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	var zero T
	return zero, errors.New("unknown name")
}

// parseSeverity accepts a level as N or SEVN, in any case.
func parseSeverity(f *Filter, s string) error {
	n, err := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(s), "SEV"))
	if err != nil {
		return err
	}
	if f.severity = Severity(n); !f.severity.Valid() {
		return fmt.Errorf("want 1..3, got %d", n)
	}
	return nil
}

// parseBound reads a window bound in hours since epoch. ±Inf are valid
// (unbounded); NaN is not, since it orders against nothing.
func parseBound(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		err = errors.New("NaN bound")
	}
	return v, err
}

// ParseFilter reads a Filter from query-string values: the keys year,
// device, severity, design, cause, since and until. Names match
// case-insensitively, severity is N or SEVN, and the window bounds are
// floats (hours since epoch). An empty value leaves its predicate unset.
// An unknown or repeated key is an error, so a misspelled filter can never
// silently widen a query.
func ParseFilter(v url.Values) (Filter, error) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var f Filter
next:
	for _, k := range keys {
		for _, fk := range filterKeys {
			if fk.name != k {
				continue
			}
			vals := v[k]
			if len(vals) > 1 {
				return Filter{}, fmt.Errorf("repeated query key %q", k)
			}
			if len(vals) == 0 || vals[0] == "" {
				continue next
			}
			if err := fk.parse(&f, vals[0]); err != nil {
				return Filter{}, fmt.Errorf("bad %s %q: %w", k, vals[0], err)
			}
			f.set |= fk.bit
			continue next
		}
		return Filter{}, fmt.Errorf("unknown query key %q", k)
	}
	return f, nil
}

// String is the canonical encoding: the set predicates as key=value pairs
// in the fixed order year, device, severity, design, cause, since, until,
// each value in its canonical spelling, joined by '&'. Values are not
// URL-escaped ("cause=Capacity planning", "until=+Inf"). Two spellings of
// one filter encode identically, so the encoding serves as a cache key.
func (f Filter) String() string {
	var sb strings.Builder
	for _, fk := range filterKeys {
		if f.set&fk.bit == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(fk.name)
		sb.WriteByte('=')
		sb.WriteString(fk.render(&f))
	}
	return sb.String()
}

// matchesWindow applies the residual Since/Until predicates — the only
// filters the posting lists do not encode.
func (f *Filter) matchesWindow(r *Report) bool {
	if f.set&fSince != 0 && r.Start < f.since {
		return false
	}
	if f.set&fUntil != 0 && r.Start >= f.until {
		return false
	}
	return true
}
