// Command topogen generates, describes and exports topologies from the
// generator registry: the paper's three families plus Waxman geometric
// graphs, ring/grid/torus lattices, two-tier hierarchical ISPs, and
// GML/adjacency-list imports of real networks. Output is the JSON graph
// format consumed by cmd/dtropt and campaign tooling.
//
// Usage:
//
//	topogen list                         # families, one per line
//	topogen describe waxman              # description + default params
//	topogen gen -topo waxman -o w.json
//	topogen gen -topo torus -params '{"rows":6,"cols":6}'
//	topogen gen -topo import -path zoo.gml -o zoo.json   # GML -> JSON export
//
// gen flags override fields of -params; unset parameters resolve to the
// family's registered defaults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"strings"

	"dualtopo/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topogen: ")
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "list":
			cmdList(args[1:])
			return
		case "describe":
			cmdDescribe(args[1:])
			return
		case "gen":
			cmdGen(args[1:])
			return
		case "-h", "--help", "help":
			usage()
			return
		}
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  topogen list [-q]            list registered topology families
  topogen describe <family>    show a family's description and default params
  topogen gen [flags]          generate a topology as JSON

gen flags:
`)
	genFlags(nil).PrintDefaults()
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print family names only (one per line, for scripts)")
	fs.Parse(args)
	for _, name := range topo.Families() {
		if *quiet {
			fmt.Println(name)
			continue
		}
		gen, _ := topo.Lookup(name)
		fmt.Printf("%-10s %s\n", name, gen.Description)
	}
}

func cmdDescribe(args []string) {
	if len(args) != 1 {
		log.Fatalf("describe: want exactly one family name (%s)", topo.FamilyList())
	}
	gen, ok := topo.Lookup(args[0])
	if !ok {
		log.Fatalf("unknown family %q (%s)", args[0], topo.FamilyList())
	}
	out := struct {
		Name        string      `json:"name"`
		Description string      `json:"description"`
		Defaults    topo.Params `json:"defaults"`
	}{gen.Name, gen.Description, gen.Defaults}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// genConfig receives the gen flag values.
type genConfig struct {
	family     string
	paramsJSON string
	path       string
	nodes      int
	links      int
	capacity   float64
	minDelay   float64
	maxDelay   float64
	delayModel string
	seed       uint64
	out        string
	quiet      bool
}

func genFlags(cfg *genConfig) *flag.FlagSet {
	if cfg == nil {
		cfg = &genConfig{}
	}
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	fs.StringVar(&cfg.family, "topo", "random", "topology family: "+topo.FamilyList())
	fs.StringVar(&cfg.paramsJSON, "params", "", `family parameters as JSON, e.g. '{"alpha":0.4}' (@file reads a file)`)
	fs.StringVar(&cfg.path, "path", "", "import family: GML or adjacency-list file")
	fs.IntVar(&cfg.nodes, "nodes", 0, "node count (0 = family default)")
	fs.IntVar(&cfg.links, "links", 0, "bidirectional link budget, random/powerlaw only (0 = family default)")
	fs.Float64Var(&cfg.capacity, "capacity", 0, "per-arc capacity in Mbps (0 = family default)")
	fs.Float64Var(&cfg.minDelay, "min-delay", 0, "min propagation delay in ms (0 = family default)")
	fs.Float64Var(&cfg.maxDelay, "max-delay", 0, "max propagation delay in ms (0 = family default)")
	fs.StringVar(&cfg.delayModel, "delay-model", "", "delay model: uniform|distance|keep|none (empty = family default)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.out, "o", "", "output file (default stdout)")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress the summary line on stderr")
	return fs
}

func cmdGen(args []string) {
	var cfg genConfig
	fs := genFlags(&cfg)
	fs.Parse(args)
	if fs.NArg() > 0 {
		log.Fatalf("gen: unexpected argument %q", fs.Arg(0))
	}

	var p topo.Params
	if cfg.paramsJSON != "" {
		raw := cfg.paramsJSON
		if strings.HasPrefix(raw, "@") {
			data, err := os.ReadFile(raw[1:])
			if err != nil {
				log.Fatal(err)
			}
			raw = string(data)
		}
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			log.Fatalf("bad -params: %v", err)
		}
	}
	// Individual flags override -params fields.
	if cfg.path != "" {
		p.Path = cfg.path
	}
	if cfg.nodes != 0 {
		p.Nodes = cfg.nodes
	}
	if cfg.links != 0 {
		p.Links = cfg.links
	}
	if cfg.capacity != 0 {
		p.CapacityMbps = cfg.capacity
	}
	if cfg.minDelay != 0 {
		p.MinDelayMs = cfg.minDelay
	}
	if cfg.maxDelay != 0 {
		p.MaxDelayMs = cfg.maxDelay
	}
	if cfg.delayModel != "" {
		p.DelayModel = cfg.delayModel
	}

	rng := rand.New(rand.NewPCG(cfg.seed, 0x7090))
	g, err := topo.Generate(cfg.family, p, rng)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if cfg.out != "" {
		file, err := os.Create(cfg.out)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w = file
	}
	if err := g.Write(w); err != nil {
		log.Fatal(err)
	}
	if !cfg.quiet {
		fmt.Fprintf(os.Stderr, "%s: %d nodes, %d arcs (%d links)\n",
			cfg.family, g.NumNodes(), g.NumEdges(), g.NumEdges()/2)
	}
}
