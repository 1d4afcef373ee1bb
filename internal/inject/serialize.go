package inject

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/fault"
)

// resultJSON is the stable on-disk schema for campaign results. Function
// fields of Options are not persisted; everything needed to audit or
// re-label a campaign is.
type resultJSON struct {
	SchemaVersion int     `json:"schema_version"`
	Design        string  `json:"design"`
	Engine        string  `json:"engine"`
	LET           float64 `json:"let"`
	Flux          float64 `json:"flux"`
	ExposureS     float64 `json:"exposure_s"`
	KN            int     `json:"kn"`
	LN            int     `json:"ln"`
	SampleFrac    float64 `json:"sample_frac"`
	Seed          uint64  `json:"seed"`
	CkptCycles    int     `json:"checkpoint_every_cycles,omitempty"`
	ColdStart     bool    `json:"cold_start,omitempty"`
	Work
	ChipSER      float64         `json:"chip_ser"`
	SETXsect     float64         `json:"set_xsect_cm2"`
	SEUXsect     float64         `json:"seu_xsect_cm2"`
	GoldenWallNS int64           `json:"golden_wall_ns"`
	GoldenEvals  uint64          `json:"golden_evals"`
	Clusters     []ClusterStats  `json:"clusters"`
	Modules      []ModuleStats   `json:"modules"`
	Injections   []injectionJSON `json:"injections"`
	ClusterOf    []int           `json:"cluster_of"`
}

type injectionJSON struct {
	CellID    int    `json:"cell_id"`
	Path      string `json:"path"`
	Kind      string `json:"kind"`
	TimePS    uint64 `json:"time_ps"`
	PulsePS   uint64 `json:"pulse_ps,omitempty"`
	Cluster   int    `json:"cluster"`
	SoftError bool   `json:"soft_error"`
}

const schemaVersion = 1

// WriteJSON serializes the campaign result.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{
		SchemaVersion: schemaVersion,
		Design:        r.Design,
		Engine:        r.Engine,
		LET:           r.Options.LET,
		Flux:          r.Options.Flux,
		ExposureS:     r.Options.ExposureS,
		KN:            r.Options.KN,
		LN:            r.Options.LN,
		SampleFrac:    r.Options.SampleFrac,
		Seed:          r.Options.Seed,
		CkptCycles:    r.Options.CheckpointEveryCycles,
		ColdStart:     r.Options.ColdStart,
		Work:          r.Work,
		ChipSER:       r.ChipSER,
		SETXsect:      r.SETXsect,
		SEUXsect:      r.SEUXsect,
		GoldenWallNS:  r.GoldenWall.Nanoseconds(),
		GoldenEvals:   r.GoldenEvals,
		Clusters:      r.Clusters,
		ClusterOf:     r.ClusterOf,
	}
	for _, name := range r.ModuleNames() {
		out.Modules = append(out.Modules, *r.Modules[name])
	}
	for _, inj := range r.Injections {
		out.Injections = append(out.Injections, injectionJSON{
			CellID:    inj.CellID,
			Path:      inj.Path,
			Kind:      inj.Kind.String(),
			TimePS:    inj.TimePS,
			PulsePS:   inj.PulsePS,
			Cluster:   inj.Cluster,
			SoftError: inj.SoftError,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON loads a previously serialized campaign result. Only the data
// fields are restored; the Options function hooks stay nil.
func ReadJSON(rd io.Reader) (*Result, error) {
	var in resultJSON
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("inject: decoding result: %v", err)
	}
	if in.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("inject: unsupported schema version %d", in.SchemaVersion)
	}
	res := &Result{
		Design:      in.Design,
		Engine:      in.Engine,
		ChipSER:     in.ChipSER,
		SETXsect:    in.SETXsect,
		SEUXsect:    in.SEUXsect,
		GoldenWall:  time.Duration(in.GoldenWallNS),
		GoldenEvals: in.GoldenEvals,
		Work:        in.Work,
		Clusters:    in.Clusters,
		ClusterOf:   in.ClusterOf,
		Modules:     map[string]*ModuleStats{},
	}
	res.Options.LET = in.LET
	res.Options.Flux = in.Flux
	res.Options.ExposureS = in.ExposureS
	res.Options.KN = in.KN
	res.Options.LN = in.LN
	res.Options.SampleFrac = in.SampleFrac
	res.Options.Seed = in.Seed
	res.Options.CheckpointEveryCycles = in.CkptCycles
	res.Options.ColdStart = in.ColdStart
	for i := range in.Modules {
		m := in.Modules[i]
		res.Modules[m.Name] = &m
	}
	for _, inj := range in.Injections {
		kind := fault.KindFromString(inj.Kind)
		res.Injections = append(res.Injections, Injection{
			CellID:    inj.CellID,
			Path:      inj.Path,
			Kind:      kind,
			TimePS:    inj.TimePS,
			PulsePS:   inj.PulsePS,
			Cluster:   inj.Cluster,
			SoftError: inj.SoftError,
		})
	}
	return res, nil
}
