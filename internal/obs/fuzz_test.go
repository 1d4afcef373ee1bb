package obs

import (
	"strings"
	"testing"
	"time"
)

// fuzzBase is the exposition another worker has pushed before the fuzzed
// text arrives: every kind a Registry renders, a label value that needs
// escaping, and two untyped samples whose names a histogram family could
// claim.
func fuzzBase() string {
	r := NewRegistry()
	r.NewCounter("shards_total", "Shards.", "engine", "Event\"Sim\\\n").Add(3)
	r.NewGauge("busy", "Busy flag.").Set(-0.5)
	r.NewGaugeFunc("queue_depth", "Depth.", func() float64 { return 7 }, "pool", "a")
	h := r.NewHistogram("wall_seconds", "Wall.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(4)
	return r.Expose() + "lat_bucket 1\nlat_count 2\n"
}

// FuzzParseText fuzzes the metrics ingest the coordinator runs on every
// worker push. ParseText never panics on any text. A text Fleet.Push
// accepts leaves Fleet.Expose parseable, so GET /metrics/fleet stays
// clean whatever a worker pushes. A text Fleet.Push refuses leaves the
// fleet as it was: the pushing worker keeps its previous snapshot.
func FuzzParseText(f *testing.F) {
	f.Add(fuzzBase())
	f.Add("# TYPE x counter\nx{k=\"v\"} 1 1712000000\n# HELP x some help\n# bare comment\nx_y NaN\nz -Inf\n")
	// The malformed lines TestStrictParserRejects feeds the parser.
	for _, bad := range []string{
		"# FOO x y\n", "1bad 3\n", `x{1k="v"} 3` + "\n", `x{k=v} 3` + "\n", `x{k="a\q"} 3` + "\n",
		"x\n", "x notanumber\n", "x 1\nx 2\n", `x{k="a",k="b"} 1` + "\n", "x 1\n# TYPE x counter\n",
		"# TYPE x widget\n", "x 1 \n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	} {
		f.Add(bad)
	}
	// Family clashes with the other worker's push, in both directions.
	f.Add("wall_seconds_bucket{le=\"+Inf\"} 1\n")
	f.Add("# TYPE lat histogram\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 1\nlat_count 2\n")
	f.Add("# TYPE busy counter\nbusy 1\n")
	f.Add("fleet_workers 1\n")
	f.Add("x{worker=\"w\"} 1\n")

	at := time.Unix(5000, 0)
	f.Fuzz(func(t *testing.T, text string) {
		ParseText(text)

		fl := NewFleet(0)
		fl.SetNow(func() time.Time { return at })
		if err := fl.Push("base", fuzzBase(), time.Second); err != nil {
			t.Fatal(err)
		}
		if err := fl.Push("w1", "# TYPE prev_total counter\nprev_total 1\n", time.Second); err != nil {
			t.Fatal(err)
		}
		before := fl.Expose()
		if err := fl.Push("w1", text, time.Second); err != nil {
			if after := fl.Expose(); after != before {
				t.Fatalf("refused push (%v) changed the fleet exposition:\n--- before ---\n%s--- after ---\n%s", err, before, after)
			}
			return
		}
		merged := fl.Expose()
		if _, err := ParseText(merged); err != nil {
			t.Fatalf("accepted push %q leaves an exposition the parser refuses: %v\n%s", text, err, merged)
		}
		if strings.Contains(merged, "prev_total") && !strings.Contains(text, "prev_total") {
			t.Fatalf("accepted push kept the worker's previous snapshot:\n%s", merged)
		}
	})
}
