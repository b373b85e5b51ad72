// Command momentopt runs Moment's automatic module (the paper's
// automatic_module.py): it profiles a machine, searches hardware
// placements by max-flow, lays out data with DDAK, and prints the plan.
//
// Usage:
//
//	momentopt -machine B -dataset IG -model graphsage
//	momentopt -spec server.spec -dataset UK -model gat -scores
//	momentopt -machine B -dataset IG -trace trace.json -metrics
//	momentopt -machine B -dataset PA -explain
//	momentopt -spec deploy.spec -dataset PA -replication 0.25
//
// When the -spec file carries a `cluster ...` line (node count, NICs,
// leaf/spine shape), the single-node plan is followed by a multi-node flow
// plan: the planned placement replicated across the cluster and priced by
// one whole-cluster max-flow solve.
//
// -explain prints the plan's provenance trail — every candidate the search
// enumerated, pruned (and why), the bisector's effort per candidate, and
// the final score and layout breakdown. The trail is byte-deterministic
// for a fixed machine/workload (it forces a serial, uncached search), so
// two runs of the same problem diff clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"moment"
	"moment/cmd/internal/obsflag"
)

func main() {
	var (
		machineName = flag.String("machine", "B", "built-in machine: A, B or C")
		specPath    = flag.String("spec", "", "machine spec file (overrides -machine)")
		dataset     = flag.String("dataset", "IG", "dataset: PA, IG, UK or CL")
		model       = flag.String("model", "graphsage", "model: graphsage or gat")
		gpus        = flag.Int("gpus", 0, "restrict GPU count (0 = machine default)")
		scores      = flag.Bool("scores", false, "print every candidate's predicted time")
		explain     = flag.Bool("explain", false,
			"print the plan provenance trail (deterministic; forces a serial search)")
		verifyPlan = flag.Bool("verify", false, "self-check every solve: certify max-flows and audit placements")
		repl       = flag.Float64("replication", 0,
			"replication factor r in [0,1] for the multi-node plan of a cluster -spec")
	)
	oflags := obsflag.Register()
	flag.Parse()
	oflags.Enable()

	if *verifyPlan {
		moment.EnableSelfChecks()
	}

	m, cspec, err := loadMachine(*machineName, *specPath)
	if err != nil {
		fatal(err)
	}
	if *gpus > 0 {
		m = m.WithGPUs(*gpus)
	}
	ds, err := moment.DatasetByName(strings.ToUpper(*dataset))
	if err != nil {
		fatal(err)
	}
	kind := moment.GraphSAGE
	if strings.EqualFold(*model, "gat") {
		kind = moment.GAT
	}

	opts := moment.SearchOptions{KeepScores: *scores}
	var ex *moment.Explain
	if *explain {
		ex = moment.NewExplain()
		opts.Explain = ex
		opts.Parallelism = 1 // one scoring worker keeps the trail's order fixed
	}
	plan, err := moment.OptimizeWith(m, moment.Workload{Dataset: ds, Model: kind}, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(plan.Report())
	if *scores {
		fmt.Println("candidate predicted epoch IO times: (see plan report above)")
	}
	if ex != nil {
		fmt.Println("--- explain ---")
		fmt.Print(ex.Render())
	}
	if cspec != nil {
		r, err := moment.SimulateCluster(moment.ClusterConfig{
			Node:        m,
			Nodes:       cspec.Nodes,
			NICBW:       cspec.NICBW,
			Workload:    moment.Workload{Dataset: ds, Model: kind},
			Placement:   plan.Placement,
			Flow:        true,
			Cluster:     cspec,
			Replication: *repl,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- multi-node plan ---")
		if r.OOM != "" {
			fmt.Printf("cluster(%d): OOM (%s)\n", cspec.Nodes, r.OOM)
		} else {
			fmt.Printf("cluster %d nodes, %d NIC(s)/node @ %.0f GiB/s, %d leaf(s): epoch %v (flow)\n",
				cspec.Nodes, max(cspec.NICsPerNode, 1), cspec.NICBW.GiBpsf(), max(cspec.Leaves, 1), r.EpochTime)
			fmt.Printf("  local io %v, nic stage %v, joint horizon %v\n", r.LocalIO, r.NICTime, r.FlowTime)
			fmt.Printf("  remote %.1f GiB/node/epoch at r=%.2f; throughput %.0f vertices/s\n",
				r.RemoteBytes/(1<<30), *repl, r.Throughput)
		}
	} else if *repl != 0 {
		fatal(fmt.Errorf("-replication needs a -spec file with a cluster line"))
	}
	if err := oflags.Flush(); err != nil {
		fatal(err)
	}
}

func loadMachine(name, spec string) (*moment.Machine, *moment.ClusterSpec, error) {
	if spec != "" {
		f, err := os.Open(spec)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return moment.ParseDeployment(f)
	}
	switch strings.ToUpper(name) {
	case "A":
		return moment.MachineA(), nil, nil
	case "B":
		return moment.MachineB(), nil, nil
	case "C":
		return moment.MachineC(), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown machine %q (want A, B, C or -spec)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "momentopt:", err)
	os.Exit(1)
}
