package sql

import (
	"testing"

	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/util"
	"repro/internal/workload"
)

// FuzzParse asserts the SQL front end is total on untrusted text: any input
// either fails to parse or yields a query that validates against the schema
// and that the optimizer plans without panicking, with no indexes and with
// the query's own candidate indexes. This is the trust boundary of the CLI
// `sql` command and of the serving API's ad-hoc query endpoints.
func FuzzParse(f *testing.F) {
	w := workload.TPCH("sqlfuzz", 400, 3)
	for _, q := range w.Queries {
		f.Add(q.SQL())
	}
	for _, q := range workload.Composite("sqlfuzz-composite", 400, 3).Queries {
		f.Add(q.SQL())
	}
	f.Add("")
	f.Add("SELECT")
	f.Add("SELECT * FROM lineitem WHERE l_quantity BETWEEN 5 AND")
	f.Add("SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 3")
	f.Add("SELECT o_id FROM orders, orders WHERE o_id = -9223372036854775808")
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(2), 64, 8)

	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in, w.Schema)
		if err != nil {
			return
		}
		if err := q.Validate(w.Schema); err != nil {
			t.Fatalf("Parse(%q) returned a query that fails validation: %v", in, err)
		}
		// A fresh optimizer per input: its per-query analysis cache is
		// keyed by query and would otherwise grow with every input.
		o := opt.New(w.Schema, ds)
		if _, err := o.Optimize(q, nil); err != nil {
			t.Fatalf("Optimize(%q) with no indexes: %v", in, err)
		}
		cfg := catalog.NewConfiguration()
		for _, ix := range candidates.Generate(q, w.Schema, candidates.Limits{}) {
			cfg.Add(ix)
		}
		if _, err := o.Optimize(q, cfg); err != nil {
			t.Fatalf("Optimize(%q) with candidate indexes: %v", in, err)
		}
	})
}
