package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"dcnr"
)

// cellPin is what the facade produces for one intra-DC cell.
type cellPin struct {
	SevsSHA256   string `json:"sevs_sha256"`
	Faults       int    `json:"faults"`
	Incidents    int    `json:"incidents"`
	ClaimsPassed int    `json:"claims_passed"`
	ClaimsTotal  int    `json:"claims_total"`
}

// backbonePin is what the facade produces for one backbone seed.
type backbonePin struct {
	TicketsSHA256 string `json:"tickets_sha256"`
	Notices       int    `json:"notices"`
	ClaimsPassed  int    `json:"claims_passed"`
	ClaimsTotal   int    `json:"claims_total"`
}

// pinSet is pins.json: the outputs of the program the benchmark was
// defined against, for a range of workload seeds. A run whose seed is in
// the range checks its outputs byte for byte against it; outside the
// range the run still checks repeats and composed calls against the
// facade.
type pinSet struct {
	// Seeds is the inclusive range of workload seeds pinned.
	Seeds [2]uint64 `json:"workload_seeds"`
	// Cells is keyed "<workload>/<sim seed>" for intradc and noremed.
	Cells map[string]cellPin `json:"cells"`
	// Campaigns is the sweep report's SHA-256, keyed
	// "<workload>/<workload seed>".
	Campaigns map[string]string `json:"campaigns"`
	// Backbone is keyed "backbone/<sim seed>".
	Backbone map[string]backbonePin `json:"backbone"`
}

//go:embed pins.json
var pinsJSON []byte

var pins = func() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("dcnrbench: pins.json: " + err.Error())
	}
	return p
}()

func pinKey(workload string, seed uint64) string {
	return workload + "/" + strconv.FormatUint(seed, 10)
}

// backboneCycle is how many backbone seeds one workload seed cycles
// through. Seeds differ in size (18k to 48k notices); sixteen of them
// nearly always include a large one, which steadies the peak RSS.
const backboneCycle = 16

// serveRuns is how many scale-5 simulations feed the serve workload.
const serveRuns = 3

// pinMain regenerates pins.json on standard output for the workload seeds
// FROM..TO, through the facade: dcnr.SimulateIntraDC, dcnr.Sweep and
// dcnr.SimulateBackbone.
//
//	dcnrbench pin 0 63 > dcnrbench/pins.json
func pinMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: dcnrbench pin FROM TO")
	}
	from, err1 := strconv.ParseUint(args[0], 10, 64)
	to, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("pin: bad seed range %q %q", args[0], args[1])
	}
	p := pinSet{
		Seeds:     [2]uint64{from, to},
		Cells:     map[string]cellPin{},
		Campaigns: map[string]string{},
		Backbone:  map[string]backbonePin{},
	}
	var (
		mu   sync.Mutex
		jobs []func() error
	)
	for name, l := range legs {
		for s := from; s <= to+campaignRuns-1; s++ {
			jobs = append(jobs, func() error {
				c, err := facadeCell(l, s)
				mu.Lock()
				p.Cells[pinKey(name, s)] = c
				mu.Unlock()
				return err
			})
		}
		for w := from; w <= to; w++ {
			jobs = append(jobs, func() error {
				cfg := campaignConfig(l, simSeeds(w, campaignRuns))
				cfg.Workers = 1
				c, err := campaign(cfg)
				mu.Lock()
				p.Campaigns[pinKey(name, w)] = c.digest
				mu.Unlock()
				return err
			})
		}
	}
	for s := from; s <= to+backboneCycle-1; s++ {
		jobs = append(jobs, func() error {
			b, err := backboneOp(s)
			mu.Lock()
			p.Backbone[pinKey("backbone", s)] = b
			mu.Unlock()
			return err
		})
	}
	if err := dcnr.RunLimit(0, len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}
