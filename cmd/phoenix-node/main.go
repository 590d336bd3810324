// phoenix-node runs one Phoenix cluster node as an OS process on real UDP
// sockets: the production counterpart of the simulator. Every node of a
// cluster runs the same binary with the same address book and topology
// flags, differing only in -node.
//
// Generate an address book for a loopback cluster (3 nodes × 2 planes):
//
//	phoenix-node -gen-book -partitions 1 -partition-size 3 -planes 2 -base-port 9000 > book.txt
//
// Then boot each node in its own terminal (or with & in one shell):
//
//	phoenix-node -node 0 -book book.txt -partitions 1 -partition-size 3 -planes 2
//	phoenix-node -node 1 -book book.txt -partitions 1 -partition-size 3 -planes 2
//	phoenix-node -node 2 -book book.txt -partitions 1 -partition-size 3 -planes 2
//
// SIGINT/SIGTERM shuts the node down gracefully (daemons killed, timers
// cancelled, sockets closed); to the surviving nodes this looks like a
// node fault, which the kernel diagnoses and recovers from.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/opshttp"
	"repro/internal/pws"
	"repro/internal/types"
	"repro/internal/wire"
)

func main() {
	var (
		nodeID   = flag.Int("node", -1, "this node's ID in the topology")
		bookPath = flag.String("book", "", "address book file (node <id> plane <idx> <host:port> per line)")
		nParts   = flag.Int("partitions", 1, "number of partitions")
		partSize = flag.Int("partition-size", 3, "nodes per partition (>= 2: server + backup)")
		planes   = flag.Int("planes", 2, "network planes (NICs) per node")
		preset   = flag.String("preset", "fast", "timing preset: fast (1s heartbeats) or paper (30s heartbeats)")
		seed     = flag.Int64("seed", 0, "random seed (0 derives one from the node ID)")
		status   = flag.Duration("status", 10*time.Second, "status log period (0 disables)")
		genBook  = flag.Bool("gen-book", false, "print a loopback address book for the topology and exit")
		basePort = flag.Int("base-port", 9000, "first UDP port for -gen-book")
		admin    = flag.String("admin", "", "operations HTTP server: host:port, or \"auto\" to derive from the book (plane-0 port + admin-offset); empty disables")
		adminOff = flag.Int("admin-offset", opshttp.DefaultAdminOffset, "admin port offset for -admin auto (phoenix-admin must use the same)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof on the admin server (needs -admin)")
		stateDir = flag.String("state-dir", "", "durable state directory: checkpoint records are mirrored there and a restart from the same directory rejoins the cluster instead of booting fresh")
		chaosPth = flag.String("chaos", "", "chaos scenario file: seeded fault schedule injected into this node's wire transport (see internal/chaos)")
		chaosSd  = flag.Int64("chaos-seed", 0, "override the chaos scenario's seed (0 keeps the scenario's own)")
		pwsOn    = flag.Bool("pws", false, "host the PWS job scheduler on partition 0's server (pools derived from the topology: one service pool, the rest batch)")
	)
	flag.Parse()

	topo, err := config.Uniform(*nParts, *partSize, *planes)
	if err != nil {
		log.Fatalf("phoenix-node: %v", err)
	}

	if *genBook {
		book, err := wire.LoopbackBook(topo.NumNodes(), *planes, *basePort)
		if err != nil {
			log.Fatalf("phoenix-node: %v", err)
		}
		fmt.Printf("# phoenix address book: %d nodes x %d planes from port %d\n", topo.NumNodes(), *planes, *basePort)
		fmt.Print(book.String())
		return
	}

	if *nodeID < 0 {
		log.Fatal("phoenix-node: -node is required (or use -gen-book)")
	}
	if *bookPath == "" {
		log.Fatal("phoenix-node: -book is required")
	}
	var params config.Params
	switch *preset {
	case "fast":
		params = config.FastParams()
	case "paper":
		params = config.DefaultParams()
	default:
		log.Fatalf("phoenix-node: unknown preset %q (want fast or paper)", *preset)
	}
	book, err := wire.LoadBook(*bookPath)
	if err != nil {
		log.Fatalf("phoenix-node: %v", err)
	}

	id := types.NodeID(*nodeID)
	reg := metrics.NewRegistry()
	opts := []noded.Option{
		noded.WithParams(params),
		noded.WithSeed(*seed),
		noded.WithBook(book),
		noded.WithMetrics(reg),
	}
	if *stateDir != "" {
		opts = append(opts, noded.WithStateDir(*stateDir))
	}
	if *pwsOn {
		// Every node passes the same spec; noded spawns the scheduler only
		// on the home partition's server, everyone else just registers the
		// factory so GSD supervision can migrate it here.
		opts = append(opts, noded.WithPWS(pws.Spec{
			Partition:   0,
			Pools:       pws.TopologyPools(topo),
			SchedPeriod: params.LocalCheckPeriod,
			UseBulletin: true,
			Overload:    pws.OverloadFromParams(params),
		}))
	}

	// Chaos fabric: the scenario's fault schedule replays against this
	// node's transport on the wall clock; a kill step naming this node
	// terminates the process abruptly, like a crash.
	var chaosRunner *chaos.Runner
	var chaosScenario *chaos.Scenario
	if *chaosPth != "" {
		raw, err := os.ReadFile(*chaosPth)
		if err != nil {
			log.Fatalf("phoenix-node: %v", err)
		}
		chaosScenario, err = chaos.Parse(string(raw))
		if err != nil {
			log.Fatalf("phoenix-node: %v", err)
		}
		if *chaosSd != 0 {
			chaosScenario.Seed = *chaosSd
		}
		inj := chaos.New(chaosScenario.Seed)
		chaosRunner = chaos.NewRunner(inj, id, func() {
			log.Printf("phoenix-node: %v: chaos kill — exiting like a crash", id)
			os.Exit(137)
		})
		opts = append(opts, noded.WithWireOptions(
			wire.WithOutboundFilter(inj.Outbound()),
			wire.WithInboundFilter(inj.Inbound()),
		))
	}
	adminAddr := *admin
	if adminAddr == "auto" {
		adminAddr, err = opshttp.AdminAddr(book, id, *adminOff)
		if err != nil {
			log.Fatalf("phoenix-node: %v", err)
		}
	}
	if adminAddr != "" {
		opts = append(opts, noded.WithAdmin(adminAddr))
		if *pprofOn {
			opts = append(opts, noded.WithAdminPprof())
		}
	} else if *pprofOn {
		log.Fatal("phoenix-node: -pprof needs -admin")
	}
	n, err := noded.Start(id, topo, opts...)
	if err != nil {
		log.Fatalf("phoenix-node: %v", err)
	}
	if chaosRunner != nil {
		chaosRunner.Run(chaosScenario)
		defer chaosRunner.Stop()
		log.Printf("phoenix-node: %v: chaos scenario armed (%d steps, seed %d)",
			id, len(chaosScenario.Steps), chaosScenario.Seed)
	}
	ni, _ := topo.Node(id)
	log.Printf("phoenix-node: %v up (role %v, partition %v, %d planes, preset %s)",
		id, ni.Role, ni.Partition, *planes, *preset)
	if a := n.AdminAddr(); a != "" {
		log.Printf("phoenix-node: %v admin endpoints at http://%s/{metrics,healthz,readyz,statusz}", id, a)
	}

	var ticker *time.Ticker
	if *status > 0 {
		ticker = time.NewTicker(*status)
		defer ticker.Stop()
	} else {
		ticker = time.NewTicker(time.Hour)
		ticker.Stop()
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	for {
		select {
		case sig := <-sigs:
			log.Printf("phoenix-node: %v: received %v, shutting down", id, sig)
			w := n.Transport().Stats()
			n.Stop()
			log.Printf("phoenix-node: %v down (tx %d datagrams, rx %d datagrams, retx %d, dup %d)",
				id, w.TxDatagrams, w.RxDatagrams, w.Retransmits, w.DupDrops)
			return
		case <-ticker.C:
			// The periodic status line renders the same snapshot struct
			// the admin server serves at /statusz — one source of truth.
			log.Printf("phoenix-node: %s", n.Status().Line())
		}
	}
}
