package tickets

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// refFormat and refParse are the fmt/bufio.Scanner implementations that
// Notice.AppendFormat and Parse replaced, kept verbatim as the
// differential oracle for the fuzz targets and the line-bound table.

func refFormat(n Notice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ticket-ID: %s\n", n.TicketID)
	fmt.Fprintf(&b, "Vendor: %s\n", n.Vendor)
	fmt.Fprintf(&b, "Link: %s\n", n.Link)
	fmt.Fprintf(&b, "Circuit: %s\n", n.Circuit)
	fmt.Fprintf(&b, "Edge: %s\n", n.Edge)
	fmt.Fprintf(&b, "Continent: %s\n", n.Continent)
	fmt.Fprintf(&b, "Event: %s\n", n.Event)
	fmt.Fprintf(&b, "At-Hours: %.4f\n", n.AtHours)
	if n.Event == RepairStart {
		fmt.Fprintf(&b, "Estimated-Hours: %.4f\n", n.EstimatedHours)
	}
	fmt.Fprintf(&b, "Maintenance: %t\n", n.Maintenance)
	return b.String()
}

func refParse(text string) (Notice, error) {
	n := Notice{AtHours: -1}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return Notice{}, fmt.Errorf("tickets: malformed line %q", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		seen[key] = true
		switch key {
		case "Ticket-ID":
			n.TicketID = value
		case "Vendor":
			n.Vendor = value
		case "Link":
			n.Link = value
		case "Circuit":
			n.Circuit = value
		case "Edge":
			n.Edge = value
		case "Continent":
			c, ok := continentByName[value]
			if !ok {
				return Notice{}, fmt.Errorf("tickets: unknown continent %q", value)
			}
			n.Continent = c
		case "Event":
			switch EventType(value) {
			case RepairStart, RepairComplete:
				n.Event = EventType(value)
			default:
				return Notice{}, fmt.Errorf("tickets: unknown event %q", value)
			}
		case "At-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil || f < 0 {
				return Notice{}, fmt.Errorf("tickets: bad At-Hours %q", value)
			}
			n.AtHours = f
		case "Estimated-Hours":
			f, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Estimated-Hours %q", value)
			}
			n.EstimatedHours = f
		case "Maintenance":
			b, err := strconv.ParseBool(value)
			if err != nil {
				return Notice{}, fmt.Errorf("tickets: bad Maintenance %q", value)
			}
			n.Maintenance = b
		}
	}
	if err := sc.Err(); err != nil {
		return Notice{}, fmt.Errorf("tickets: reading notice: %w", err)
	}
	for _, req := range []string{"Ticket-ID", "Vendor", "Link", "Edge", "Event", "At-Hours"} {
		if !seen[req] {
			return Notice{}, fmt.Errorf("tickets: missing required header %s", req)
		}
	}
	return n, nil
}
