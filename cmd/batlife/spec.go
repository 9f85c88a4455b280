package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"batlife"
	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
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

func (wf workloadFlags) model() (*workload.Model, error) {
	if *wf.spec != "" {
		w, err := loadPublicSpec(*wf.spec)
		if err != nil {
			return nil, err
		}
		return internalModel(w)
	}
	switch *wf.name {
	case "simple":
		return workload.Simple(workload.SimpleConfig{})
	case "burst":
		return workload.Burst(workload.BurstConfig{})
	case "onoff":
		cur, err := units.ParseCurrent(*wf.on)
		if err != nil {
			return nil, err
		}
		return workload.OnOff(*wf.freq, *wf.k, cur)
	default:
		return nil, fmt.Errorf("unknown workload %q (want simple, burst or onoff)", *wf.name)
	}
}

func (wf workloadFlags) kibamrm(battery kibam.Params) (mrm.KiBaMRM, error) {
	m, err := wf.model()
	if err != nil {
		return mrm.KiBaMRM{}, err
	}
	return mrm.KiBaMRM{
		Workload: m.Chain,
		Currents: m.Currents,
		Initial:  m.Initial,
		Battery:  battery,
	}, nil
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

// internalModel rebuilds the internal workload model from a public
// Workload via its decompiled specification.
func internalModel(w *batlife.Workload) (*workload.Model, error) {
	states, transitions, initial := w.Spec()
	var b ctmc.Builder
	for _, s := range states {
		b.State(s.Name)
	}
	for _, tr := range transitions {
		b.Transition(tr.From, tr.To, tr.RatePerSec)
	}
	chain, err := b.Build()
	if err != nil {
		return nil, err
	}
	currents := make([]float64, chain.NumStates())
	for _, s := range states {
		currents[chain.Index(s.Name)] = s.CurrentA
	}
	return &workload.Model{
		Chain:    chain,
		Currents: currents,
		Initial:  chain.PointDistribution(chain.Index(initial)),
	}, nil
}
