package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// ftoa formats a float the way every CSV column of this package does:
// the shortest representation that round-trips.
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// PrintCurves writes rate-sweep curves as an aligned text table, one row
// per (curve, rate) pair — the same rows the paper's rate-axis figures
// plot.
func PrintCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-24s %10s %12s %10s %8s %10s\n",
		"curve", "rate", "accepted", "latency", "recov", "fullbufs")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%-24s %10.4f %12.4f %10.1f %8d %10.1f\n",
				c.Name, p.Rate, p.Accepted, p.Latency, p.Recov, p.Full)
		}
	}
}

// curveRows lays the curves out as CSV records in long form
// (curve,rate,accepted,latency,recoveries,fullbuffers), header first.
func curveRows(curves []Curve) [][]string {
	rows := [][]string{{"curve", "rate", "accepted_flits_per_node_cycle",
		"avg_network_latency_cycles", "recoveries", "mean_full_buffers"}}
	for _, c := range curves {
		for _, p := range c.Points {
			rows = append(rows, []string{c.Name, ftoa(p.Rate), ftoa(p.Accepted),
				ftoa(p.Latency), strconv.FormatInt(p.Recov, 10), ftoa(p.Full)})
		}
	}
	return rows
}

// writeCurves prints rate-sweep curves under a title and writes them to
// one CSV file.
func writeCurves(ctx RunContext, title, csvName string, curves []Curve) error {
	PrintCurves(ctx.Out, title, curves)
	return ctx.csv(csvName, curveRows(curves))
}

// reportCurves is the formatter of the rate-sweep entries: one curve
// per group, named after the group.
func reportCurves(title, csvName string) func(RunContext, *Spec, [][]sim.Result) error {
	return func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
		curves := make([]Curve, len(spec.Groups))
		for gi, g := range spec.Groups {
			curves[gi] = GroupCurve(g, grouped[gi])
		}
		return writeCurves(ctx, title, csvName, curves)
	}
}

// reportAblation is the formatter of the comparison studies: one
// (config, accepted, latency) row per point, in grid order, named by the
// point's label.
func reportAblation(title string) func(RunContext, *Spec, [][]sim.Result) error {
	return func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
		fmt.Fprintf(ctx.Out, "%s\n", title)
		fmt.Fprintf(ctx.Out, "%-24s %12s %10s\n", "config", "accepted", "latency")
		for gi, g := range spec.Groups {
			for pi, p := range g.Points {
				r := grouped[gi][pi]
				fmt.Fprintf(ctx.Out, "%-24s %12.4f %10.1f\n", p.Label, r.AcceptedFlits, r.AvgNetworkLatency)
			}
		}
		return nil
	}
}

// PrintSpecResults writes a generic per-point summary of a spec run:
// the report form for grids that arrive as serialized specs rather than
// by registry name. Shared by "stcc run -spec" and the stcc-serve job
// reports, so the CLI and the service render identical bytes for the
// same grid.
func PrintSpecResults(w io.Writer, spec *Spec, grouped [][]sim.Result) {
	title := spec.Name
	if spec.Title != "" {
		title += ": " + spec.Title
	}
	fmt.Fprintln(w, title)
	for gi, g := range spec.Groups {
		if g.Name != "" {
			fmt.Fprintf(w, "-- %s\n", g.Name)
		}
		fmt.Fprintf(w, "%-32s %14s %12s %12s\n", "point", "accepted", "latency", "recoveries")
		for pi, p := range g.Points {
			r := grouped[gi][pi]
			fmt.Fprintf(w, "%-32s %14.4f %12.1f %12d\n",
				p.Label, r.AcceptedFlits, r.AvgNetworkLatency, r.Recoveries)
		}
	}
}
