// Federated auditing: a hospital system is rarely one EHR deployment. This
// example simulates two regional installations — each holding its own slice
// of the access log and its own copy of the metadata — federates them, and
// shows that the federated audit is indistinguishable from auditing one
// merged log: the streamed reports arrive in global chronology, the
// explained fraction aggregates exactly, and templates mined across the
// shards match single-log mining query for query.
package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"repro/internal/accesslog"
	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/federate"
	"repro/internal/mine"
	"repro/internal/pathmodel"
	"repro/internal/query"
	"repro/internal/relation"
)

func main() {
	ds := ehr.Generate(ehr.Tiny())
	graph := ehr.SchemaGraph(ehr.DefaultGraphOptions())

	// Split the week's log into two "regional deployments" at mid-week: each
	// region gets its own database holding its slice of the log plus the
	// shared metadata tables, the way two installations of the same EHR
	// product would.
	log := ds.Log()
	var early, late []int
	di, _ := log.ColumnIndex(pathmodel.LogDateColumn)
	for r := 0; r < log.NumRows(); r++ {
		if log.Row(r)[di].AsInt() < 4 {
			early = append(early, r)
		} else {
			late = append(late, r)
		}
	}
	east := accesslog.WithLog(ds.DB, log.Select(pathmodel.LogTable, early))
	west := accesslog.WithLog(ds.DB, log.Select(pathmodel.LogTable, late))

	// Federate them: the shard logs merge into one chronology (so repeat
	// accesses and collaborative groups span regions) while each region's
	// accesses are explained against its own metadata.
	fed, err := federate.Join([]*relation.Database{east, west}, graph,
		federate.WithNamer(ds), federate.WithShardNames("east", "west"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "federation: %v\n", err)
		os.Exit(1)
	}
	catalog := explain.Handcrafted(true, true).All()
	fed.AddTemplates(catalog...)

	fmt.Println(fed.Summary())
	for _, si := range fed.ShardInfos() {
		fmt.Printf("  %s: %d accesses\n", si.Name, si.Rows)
	}

	// Stream the federated audit: each shard engine audits its slice through
	// the bounded core pipeline, and the shard streams are k-way merged back
	// into global log order on the fly.
	ctx := context.Background()
	workers := runtime.NumCPU()
	streamed := 0
	var firstUnexplained *core.AccessReport
	if err := fed.StreamReports(ctx, workers, func(rep core.AccessReport) error {
		streamed++
		if firstUnexplained == nil && !rep.Explained() {
			r := rep
			firstUnexplained = &r
		}
		return nil
	}); err != nil {
		fmt.Fprintf(os.Stderr, "stream: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nstreamed %d reports in global log order across %d shards\n", streamed, fed.NumShards())
	frac, err := fed.ExplainedFraction(ctx, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "explained fraction: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("explained fraction: %.3f\n", frac)
	if firstUnexplained != nil {
		fmt.Printf("first unexplained access: L%d %s %s -> %s\n",
			firstUnexplained.Lid, firstUnexplained.Date,
			firstUnexplained.UserName, ds.PatientName(firstUnexplained.Patient))
	}

	// The differential: a single engine over the merged log produces the
	// exact same reports.
	single := core.NewAuditor(ds.DB, graph, core.WithNamer(ds))
	single.BuildGroups(core.GroupsOptions{})
	single.AddTemplates(catalog...)
	want, err := single.ExplainAll(ctx, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "single-engine audit: %v\n", err)
		os.Exit(1)
	}
	got, err := fed.ExplainAll(ctx, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "federated audit: %v\n", err)
		os.Exit(1)
	}
	if !reflect.DeepEqual(got, want) {
		fmt.Fprintln(os.Stderr, "FEDERATION DIVERGED from the single-engine audit")
		os.Exit(1)
	}
	fmt.Printf("\nfederated stream is identical to the single-engine stream (%d reports)\n", len(want))

	// Mining across the federation: candidates are generated once, each
	// support query runs per shard and the shard supports sum — templates
	// and statistics match single-log mining exactly.
	opt := mine.DefaultOptions()
	opt.MaxLength = 3
	opt.Parallelism = workers
	fedRes, err := fed.MineTemplates(mine.AlgoOneWay, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mine: %v\n", err)
		os.Exit(1)
	}
	singleRes := mine.OneWay(query.NewEvaluator(ds.DB), graph, opt)
	match := reflect.DeepEqual(fedRes.Templates, singleRes.Templates)
	fmt.Printf("mined %d templates across shards (single-log miner agrees: %v, %d support queries each)\n",
		len(fedRes.Templates), match, fedRes.Stats.SupportQueries)
	if !match {
		os.Exit(1)
	}
}
