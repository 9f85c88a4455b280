package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"batlife"
	"batlife/internal/units"
)

// workloadFlags selects a built-in workload or a JSON specification.
type workloadFlags struct {
	name *string
	spec *string
	freq *float64
	k    *int
	on   *string
}

func addWorkloadFlags(fs *flag.FlagSet) workloadFlags {
	return workloadFlags{
		name: fs.String("workload", "simple", "built-in workload: simple, burst, onoff (ignored with -spec)"),
		spec: fs.String("spec", "", "path to a JSON workload specification (batlife v1 codec)"),
		freq: fs.Float64("freq-onoff", 1, "on/off workload switching frequency in Hz"),
		k:    fs.Int("erlang", 1, "on/off workload Erlang order"),
		on:   fs.String("on-current", "0.96A", "on/off workload on-phase current"),
	}
}

// public builds the selected workload as a public batlife.Workload:
// every analysis command runs on the facade, so the Solver path the
// library users take is the one the CLI exercises.
func (wf workloadFlags) public() (*batlife.Workload, error) {
	if *wf.spec != "" {
		return loadPublicSpec(*wf.spec)
	}
	switch *wf.name {
	case "simple":
		return batlife.SimpleWireless()
	case "burst":
		return batlife.BurstWireless()
	case "onoff":
		cur, err := units.ParseCurrent(*wf.on)
		if err != nil {
			return nil, err
		}
		return batlife.OnOffWorkload(*wf.freq, *wf.k, cur.Amperes())
	default:
		return nil, fmt.Errorf("unknown workload %q (want simple, burst or onoff)", *wf.name)
	}
}

// loadPublicSpec reads a workload specification through the public
// batlife JSON codec — the same wire schema the batlifed daemon
// accepts, so one spec file drives both the CLI and the service:
//
//	{
//	  "version": 1,
//	  "states": [
//	    {"name": "idle", "current": "8mA"},
//	    {"name": "send", "current": 0.2}
//	  ],
//	  "transitions": [
//	    {"from": "idle", "to": "send", "rate_per_hour": 2},
//	    {"from": "send", "to": "idle", "rate_per_second": 0.00166}
//	  ],
//	  "initial": "idle"
//	}
//
// Currents are numbers in amperes or unit strings; "version" may be
// omitted (treated as 1). Decoding validates: anything that loads is a
// usable model.
func loadPublicSpec(path string) (*batlife.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var w batlife.Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return &w, nil
}
