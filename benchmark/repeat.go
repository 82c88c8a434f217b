package main

// repeatRow compares one gated metric on one workload across the sets.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	// Spread is (max - min) as a share of the mean of the two.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Status is "ok", or "unresolved" where the sets differ by more than
	// the bound: such a metric cannot tell a regression from noise.
	Status string `json:"status"`
}

type repeatReport struct {
	Host   hostBlock   `json:"host"`
	Seed   int64       `json:"seed"`
	OK     bool        `json:"ok"`
	Rows   []repeatRow `json:"rows"`
	Failed []string    `json:"failed_workloads,omitempty"`
	Sets   []*suite    `json:"sets"`
	Claim  any         `json:"claim"`
}

// compareSets builds the repeatability table from complete suites.
func compareSets(sets []*suite) ([]repeatRow, bool) {
	var rows []repeatRow
	ok := true
	for wi, first := range sets[0].Workloads {
		for _, g := range gated {
			row := repeatRow{Workload: first.Workload, Metric: g.Name, Unit: g.Unit, Bound: g.Bound, Status: "ok"}
			lo, hi := 0.0, 0.0
			for si, st := range sets {
				v := *st.Workloads[wi].EndToEnd[g.Name].Value
				row.Values = append(row.Values, v)
				if si == 0 || v < lo {
					lo = v
				}
				if si == 0 || v > hi {
					hi = v
				}
			}
			row.Spread = relDiff(lo, hi)
			if row.Spread > row.Bound {
				row.Status = "unresolved"
				ok = false
			}
			rows = append(rows, row)
		}
	}
	return rows, ok
}

// repeatSets runs the suite n times on the same seed and reports whether
// every gated metric repeats within its own bound.
func repeatSets(names []string, o benchOpts, n int) (*repeatReport, error) {
	rp := &repeatReport{Host: host(), Seed: o.Seed}
	for i := 0; i < n; i++ {
		o.Log("set %d of %d", i+1, n)
		st, err := runSuite(names, o)
		if err != nil {
			return nil, err
		}
		rp.Sets = append(rp.Sets, st)
		for _, r := range st.Workloads {
			if r.Failed > 0 {
				rp.Failed = append(rp.Failed, r.Workload)
			}
		}
	}
	rp.Rows, rp.OK = compareSets(rp.Sets)
	rp.OK = rp.OK && len(rp.Failed) == 0
	return rp, nil
}
