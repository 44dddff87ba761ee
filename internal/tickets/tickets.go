// Package tickets implements the vendor repair-ticket pipeline of §4.3.2.
//
// When a fiber vendor starts repairing a link, it notifies the operator
// with a structured email: the logical link ID, the affected circuit, the
// physical location, the start time, and the estimated duration. A matching
// confirmation arrives when the repair completes. These notices are parsed
// automatically and stored for reliability analysis.
//
// This package defines the notice format (a simple RFC-822-style
// header block), generates notices from simulated link downtime, parses
// them back, and pairs start/complete notices into downtime intervals —
// the dataset §6 analyzes. Transport between vendor and collector is
// provided by package notify.
package tickets

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dcnr/internal/backbone"
)

// EventType distinguishes repair-start from repair-complete notices.
type EventType string

const (
	// RepairStart announces that a link is down and repair has begun.
	RepairStart EventType = "REPAIR_START"
	// RepairComplete confirms the repair finished and the link is up.
	RepairComplete EventType = "REPAIR_COMPLETE"
)

// Notice is one parsed vendor notification.
type Notice struct {
	// TicketID pairs the start and complete notices of one repair.
	TicketID string
	// Vendor, Link, Circuit, Edge identify the repaired elements.
	Vendor, Link, Circuit, Edge string
	// Continent is the physical location of the affected fiber.
	Continent backbone.Continent
	// Event is the notice type.
	Event EventType
	// AtHours is the event time in hours since the observation window
	// start.
	AtHours float64
	// EstimatedHours is the vendor's repair-duration estimate (start
	// notices only; vendors habitually underestimate).
	EstimatedHours float64
	// Maintenance marks planned maintenance rather than an unplanned cut.
	Maintenance bool
}

// Format renders the notice in the structured-email form vendors send.
func (n Notice) Format() string { return string(n.AppendFormat(make([]byte, 0, 256))) }

// AppendFormat appends the notice's structured-email form, exactly the
// bytes Format returns, to b and returns the extended buffer.
//
//hot:noalloc
func (n Notice) AppendFormat(b []byte) []byte {
	b = append(b, "Ticket-ID: "...)
	b = append(b, n.TicketID...)
	b = append(b, "\nVendor: "...)
	b = append(b, n.Vendor...)
	b = append(b, "\nLink: "...)
	b = append(b, n.Link...)
	b = append(b, "\nCircuit: "...)
	b = append(b, n.Circuit...)
	b = append(b, "\nEdge: "...)
	b = append(b, n.Edge...)
	b = append(b, "\nContinent: "...)
	b = append(b, n.Continent.String()...)
	b = append(b, "\nEvent: "...)
	b = append(b, n.Event...)
	b = append(b, "\nAt-Hours: "...)
	b = strconv.AppendFloat(b, n.AtHours, 'f', 4, 64)
	if n.Event == RepairStart {
		b = append(b, "\nEstimated-Hours: "...)
		b = strconv.AppendFloat(b, n.EstimatedHours, 'f', 4, 64)
	}
	b = append(b, "\nMaintenance: "...)
	b = strconv.AppendBool(b, n.Maintenance)
	return append(b, '\n')
}

// continentByName inverts backbone.Continent.String for parsing.
var continentByName = func() map[string]backbone.Continent {
	m := make(map[string]backbone.Continent)
	for _, c := range backbone.Continents {
		m[c.String()] = c
	}
	return m
}()

// requiredHeaders lists the headers every notice must carry; Parse tracks
// them as one bit each, in this order.
var requiredHeaders = [...]string{"Ticket-ID", "Vendor", "Link", "Edge", "Event", "At-Hours"}

const (
	hasTicketID uint8 = 1 << iota
	hasVendor
	hasLink
	hasEdge
	hasEvent
	hasAtHours
	hasRequired = 1<<len(requiredHeaders) - 1
)

// errLineTooLong rejects a notice line that bufio.Scanner's default
// token limit would not hold.
var errLineTooLong = fmt.Errorf("tickets: reading notice: %w", bufio.ErrTooLong)

// Parse decodes one notice from its structured-email form. Unknown header
// keys are ignored (vendors add noise); missing required keys are errors.
// A line, counted without its '\n' but with any '\r', must be shorter
// than bufio.MaxScanTokenSize (64 KiB): that bounds the size of ticket
// text, and a longer line is an error wrapping bufio.ErrTooLong. The
// strings in the returned Notice are substrings of text and share its
// memory.
//
//hot:noalloc
func Parse(text string) (Notice, error) {
	n := Notice{AtHours: -1}
	var seen uint8
	for rest := text; rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(line) >= bufio.MaxScanTokenSize {
			return Notice{}, errLineTooLong
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return Notice{}, fmt.Errorf("tickets: malformed line %q", line) //lint:allow hotalloc error path
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "Ticket-ID":
			n.TicketID = value
			seen |= hasTicketID
		case "Vendor":
			n.Vendor = value
			seen |= hasVendor
		case "Link":
			n.Link = value
			seen |= hasLink
		case "Circuit":
			n.Circuit = value
		case "Edge":
			n.Edge = value
			seen |= hasEdge
		case "Continent":
			c, ok := continentByName[value]
			if !ok {
				return Notice{}, fmt.Errorf("tickets: unknown continent %q", value) //lint:allow hotalloc error path
			}
			n.Continent = c
		case "Event":
			switch EventType(value) {
			case RepairStart, RepairComplete:
				n.Event = EventType(value)
			default:
				return Notice{}, fmt.Errorf("tickets: unknown event %q", value) //lint:allow hotalloc error path
			}
			seen |= hasEvent
		case "At-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil || f < 0 {
				return Notice{}, fmt.Errorf("tickets: bad At-Hours %q", value) //lint:allow hotalloc error path
			}
			n.AtHours = f
			seen |= hasAtHours
		case "Estimated-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Estimated-Hours %q", value) //lint:allow hotalloc error path
			}
			n.EstimatedHours = f
		case "Maintenance":
			// The spellings strconv.ParseBool accepts; its error path
			// would allocate here.
			switch value {
			case "1", "t", "T", "true", "TRUE", "True":
				n.Maintenance = true
			case "0", "f", "F", "false", "FALSE", "False":
				n.Maintenance = false
			default:
				return Notice{}, fmt.Errorf("tickets: bad Maintenance %q", value) //lint:allow hotalloc error path
			}
		}
	}
	if seen != hasRequired {
		for i, name := range requiredHeaders {
			if seen&(1<<i) == 0 {
				return Notice{}, fmt.Errorf("tickets: missing required header %s", name) //lint:allow hotalloc error path
			}
		}
	}
	return n, nil
}

// Generate produces the notice stream for a simulated set of link downtime
// intervals: one start and one complete notice per interval, ordered by
// event time (starts and completes interleaved, as they arrive in the
// field).
func Generate(topo *backbone.Topology, downs []backbone.LinkDown) []Notice {
	circuits := make(map[string]string, len(topo.Links))
	for _, l := range topo.Links {
		circuits[l.Name] = l.CircuitID
	}
	notices := make([]Notice, 0, 2*len(downs))
	for i, d := range downs {
		id := fmt.Sprintf("TKT-%06d", i+1)
		base := Notice{
			TicketID:    id,
			Vendor:      d.Vendor,
			Link:        d.Link,
			Circuit:     circuits[d.Link],
			Edge:        d.Edge,
			Continent:   d.Continent,
			Maintenance: !d.Cut,
		}
		start := base
		start.Event = RepairStart
		start.AtHours = d.Start
		// Vendors estimate ~80% of the actual duration.
		start.EstimatedHours = 0.8 * d.Duration()
		complete := base
		complete.Event = RepairComplete
		complete.AtHours = d.End
		notices = append(notices, start, complete)
	}
	sort.SliceStable(notices, func(i, j int) bool { return notices[i].AtHours < notices[j].AtHours })
	return notices
}

// Downtime is a reconstructed link downtime interval: the collector's
// output record.
type Downtime struct {
	TicketID           string
	Vendor, Link, Edge string
	Continent          backbone.Continent
	Start, End         float64
	Maintenance        bool
}

// Duration returns the interval length in hours.
func (d Downtime) Duration() float64 { return d.End - d.Start }

// Collector pairs start/complete notices into Downtime records, the
// automated parsing-and-database step of §4.3.2.
type Collector struct {
	open      map[string]Notice
	completed []Downtime
	// WindowHours clips repairs still open at the end of the observation
	// window; zero means no clipping.
	WindowHours float64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{open: make(map[string]Notice)}
}

// Ingest consumes one notice. Completes without a matching start, and
// duplicate starts, are errors — the monitoring systems §4.3.2 describes
// check exactly this kind of consistency.
func (c *Collector) Ingest(n Notice) error {
	switch n.Event {
	case RepairStart:
		if _, dup := c.open[n.TicketID]; dup {
			return fmt.Errorf("tickets: duplicate start for %s", n.TicketID)
		}
		c.open[n.TicketID] = n
	case RepairComplete:
		start, ok := c.open[n.TicketID]
		if !ok {
			return fmt.Errorf("tickets: complete without start for %s", n.TicketID)
		}
		if n.AtHours < start.AtHours {
			return fmt.Errorf("tickets: %s completes at %v before start %v", n.TicketID, n.AtHours, start.AtHours)
		}
		delete(c.open, n.TicketID)
		c.completed = append(c.completed, Downtime{
			TicketID:    n.TicketID,
			Vendor:      start.Vendor,
			Link:        start.Link,
			Edge:        start.Edge,
			Continent:   start.Continent,
			Start:       start.AtHours,
			End:         n.AtHours,
			Maintenance: start.Maintenance,
		})
	default:
		return fmt.Errorf("tickets: unknown event %q", n.Event)
	}
	return nil
}

// IngestText parses and ingests one structured-email notice.
func (c *Collector) IngestText(text string) error {
	n, err := Parse(text)
	if err != nil {
		return err
	}
	return c.Ingest(n)
}

// Open reports how many repairs are in progress (started, not completed).
func (c *Collector) Open() int { return len(c.open) }

// Downtimes returns the completed intervals sorted by start time. Repairs
// still open are clipped to WindowHours when it is set, mirroring the
// study's fixed observation window.
func (c *Collector) Downtimes() []Downtime {
	out := append([]Downtime(nil), c.completed...)
	if c.WindowHours > 0 {
		for _, start := range c.open {
			out = append(out, Downtime{
				TicketID:    start.TicketID,
				Vendor:      start.Vendor,
				Link:        start.Link,
				Edge:        start.Edge,
				Continent:   start.Continent,
				Start:       start.AtHours,
				End:         c.WindowHours,
				Maintenance: start.Maintenance,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TicketID < out[j].TicketID
	})
	return out
}

// WriteAll formats notices to w separated by blank lines — the mbox-like
// archive format used by cmd/backbonegen. It formats every notice into
// one reused buffer.
func WriteAll(w io.Writer, notices []Notice) error {
	buf := make([]byte, 0, 512)
	for _, n := range notices {
		buf = append(n.AppendFormat(buf[:0]), '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
