package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// Step is one timed action of a scenario.
type Step struct {
	At time.Duration
	// Op is one of: nic-down, nic-up, drop, dup, delay, slow, clear,
	// partition, heal, kill.
	Op string

	Plane  int              // nic-down/nic-up/drop/dup/delay/slow (AnyPlane = all)
	Peer   types.NodeID     // drop/dup/delay/slow (AnyPeer = all)
	Node   types.NodeID     // kill target; nic-down/nic-up node (AnyPeer = every node)
	Svc    string           // kill: the one service to kill ("" = the whole node)
	Dir    string           // drop/dup/delay/slow: out, in or both
	Prob   float64          // drop/dup probability
	Delay  time.Duration    // delay/slow: latency target
	Ramp   time.Duration    // slow: time over which the latency ramps to Delay
	Groups [][]types.NodeID // partition groups
}

// String renders the step in the DSL's own syntax.
func (st Step) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "at %v %s", st.At, st.Op)
	switch st.Op {
	case "nic-down", "nic-up":
		fmt.Fprintf(&sb, " plane=%d", st.Plane)
		if st.Node != AnyPeer {
			fmt.Fprintf(&sb, " node=%d", st.Node)
		}
	case "drop", "dup":
		fmt.Fprintf(&sb, " p=%g", st.Prob)
		sb.WriteString(st.matchSuffix())
	case "delay":
		fmt.Fprintf(&sb, " d=%v", st.Delay)
		sb.WriteString(st.matchSuffix())
	case "slow":
		fmt.Fprintf(&sb, " d=%v ramp=%v", st.Delay, st.Ramp)
		sb.WriteString(st.matchSuffix())
	case "partition":
		var groups []string
		for _, g := range st.Groups {
			var ns []string
			for _, n := range g {
				ns = append(ns, strconv.Itoa(int(n)))
			}
			groups = append(groups, strings.Join(ns, ","))
		}
		sb.WriteString(" " + strings.Join(groups, "|"))
	case "kill":
		fmt.Fprintf(&sb, " node=%d", st.Node)
		if st.Svc != "" {
			fmt.Fprintf(&sb, " svc=%s", st.Svc)
		}
	}
	return sb.String()
}

func (st Step) matchSuffix() string {
	var sb strings.Builder
	if st.Peer != AnyPeer {
		fmt.Fprintf(&sb, " peer=%d", st.Peer)
	}
	if st.Plane != AnyPlane {
		fmt.Fprintf(&sb, " plane=%d", st.Plane)
	}
	if st.Dir != "" { // slow's default is out, so both is printed too
		fmt.Fprintf(&sb, " dir=%s", st.Dir)
	}
	return sb.String()
}

// Scenario is a parsed chaos schedule.
type Scenario struct {
	Seed  int64
	Steps []Step
}

// Resolve returns the schedule in execution order: steps sorted by time,
// ties kept in file order. The result is what a Runner replays and what
// phoenix-chaos prints — same text, same seed, same order, always.
func (sc *Scenario) Resolve() []Step {
	out := append([]Step(nil), sc.Steps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Parse reads the scenario DSL. One directive per line; '#' starts a
// comment. Grammar:
//
//	seed <int>
//	at <dur> nic-down plane=<n> [node=<node>]
//	at <dur> nic-up plane=<n> [node=<node>]
//	at <dur> drop p=<prob> [peer=<node>] [plane=<n>] [dir=out|in|both]
//	at <dur> dup p=<prob> [peer=<node>] [plane=<n>] [dir=out|in|both]
//	at <dur> delay d=<dur> [peer=<node>] [plane=<n>] [dir=out|in|both]
//	at <dur> slow d=<dur> [ramp=<dur>] [peer=<node>] [plane=<n>] [dir=out|in|both]
//	at <dur> clear
//	at <dur> partition <a,b|c,d>
//	at <dur> heal
//	at <dur> kill node=<n> [svc=<service>]
//
// Durations use Go syntax (500ms, 3s). nic-down/nic-up without node= act
// on the plane cluster-wide. kill without svc= crashes the whole node
// (phoenix-node exits; the simulator powers the node off); with svc= it
// kills that one kernel service on the node, which its supervisor
// restarts. Only the named node acts on a kill or a node= nic step.
func Parse(text string) (*Scenario, error) {
	sc := &Scenario{Seed: 1}
	for lineNo, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) (*Scenario, error) {
			return nil, fmt.Errorf("chaos: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		if fields[0] == "seed" {
			if len(fields) != 2 {
				return fail("seed wants one integer")
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fail("bad seed %q", fields[1])
			}
			sc.Seed = v
			continue
		}
		if fields[0] != "at" || len(fields) < 3 {
			return fail("want 'at <dur> <op> …', got %q", strings.TrimSpace(line))
		}
		at, err := time.ParseDuration(fields[1])
		if err != nil {
			return fail("bad time %q", fields[1])
		}
		st := Step{At: at, Op: fields[2], Plane: AnyPlane, Peer: AnyPeer, Node: AnyPeer}
		var args *kvArgs
		if st.Op != "partition" { // partition's group spec is not key=value
			if args, err = parseArgs(fields[3:]); err != nil {
				return fail("%v", err)
			}
		}
		switch st.Op {
		case "nic-down", "nic-up":
			if st.Plane, err = args.intArg("plane", -1); err != nil || st.Plane < 0 {
				return fail("%s wants plane=<n>", st.Op)
			}
			n, err := args.intArg("node", int(AnyPeer))
			if err != nil || n < int(AnyPeer) {
				return fail("%s: bad node", st.Op)
			}
			st.Node = types.NodeID(n)
		case "drop", "dup":
			if st.Prob, err = args.floatArg("p"); err != nil {
				return fail("%s wants p=<prob>: %v", st.Op, err)
			}
			if !(st.Prob >= 0 && st.Prob <= 1) { // NaN too
				return fail("probability %g out of [0,1]", st.Prob)
			}
			if err := args.match(&st); err != nil {
				return fail("%v", err)
			}
		case "delay":
			if st.Delay, err = args.durArg("d"); err != nil {
				return fail("delay wants d=<dur>: %v", err)
			}
			if err := args.match(&st); err != nil {
				return fail("%v", err)
			}
		case "slow":
			// A gray failure: the lane keeps delivering but its one-way
			// latency climbs to d over the ramp — the link that is sick,
			// not dead. Default direction is out (one-way).
			if st.Delay, err = args.durArg("d"); err != nil {
				return fail("slow wants d=<dur>: %v", err)
			}
			if st.Ramp, err = args.optDurArg("ramp", 10*time.Second); err != nil {
				return fail("slow: bad ramp: %v", err)
			}
			if err := args.match(&st); err != nil {
				return fail("%v", err)
			}
			if st.Dir == "" {
				st.Dir = DirOut
			}
		case "clear", "heal":
			// no arguments
		case "partition":
			if len(fields) != 4 {
				return fail("partition wants one group spec a,b|c,d")
			}
			for _, grp := range strings.Split(fields[3], "|") {
				var g []types.NodeID
				for _, ns := range strings.Split(grp, ",") {
					n, err := strconv.Atoi(ns)
					if err != nil {
						return fail("bad node %q in partition", ns)
					}
					g = append(g, types.NodeID(n))
				}
				st.Groups = append(st.Groups, g)
			}
			if len(st.Groups) < 2 {
				return fail("partition wants at least two groups")
			}
		case "kill":
			n, err := args.intArg("node", -1)
			if err != nil || n < 0 {
				return fail("kill wants node=<n>")
			}
			st.Node = types.NodeID(n)
			if svc, ok := args.vals["svc"]; ok {
				args.used["svc"] = true
				if !killable[svc] {
					return fail("kill: unknown service %q", svc)
				}
				st.Svc = svc
			}
		default:
			return fail("unknown op %q", st.Op)
		}
		if args != nil {
			if unused := args.unused(); len(unused) > 0 {
				return fail("unknown arguments %v for %s", unused, st.Op)
			}
		}
		sc.Steps = append(sc.Steps, st)
	}
	return sc, nil
}

// killable is the set of service names a kill step may target.
var killable = map[string]bool{
	types.SvcAgent: true, types.SvcWD: true, types.SvcGSD: true, types.SvcES: true,
	types.SvcDB: true, types.SvcCkpt: true, types.SvcConfig: true, types.SvcSecurity: true,
	types.SvcPPM: true, types.SvcDetector: true, types.SvcPWS: true, types.SvcPBS: true,
	types.SvcPBSMom: true, types.SvcGridView: true, types.SvcGossip: true,
}

// kvArgs holds a directive's key=value arguments.
type kvArgs struct {
	vals map[string]string
	used map[string]bool
}

func parseArgs(fields []string) (*kvArgs, error) {
	a := &kvArgs{vals: make(map[string]string), used: make(map[string]bool)}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("want key=value, got %q", f)
		}
		a.vals[k] = v
	}
	return a, nil
}

func (a *kvArgs) intArg(key string, def int) (int, error) {
	v, ok := a.vals[key]
	if !ok {
		return def, nil
	}
	a.used[key] = true
	return strconv.Atoi(v)
}

func (a *kvArgs) floatArg(key string) (float64, error) {
	v, ok := a.vals[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	a.used[key] = true
	return strconv.ParseFloat(v, 64)
}

func (a *kvArgs) durArg(key string) (time.Duration, error) {
	v, ok := a.vals[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	a.used[key] = true
	return time.ParseDuration(v)
}

func (a *kvArgs) optDurArg(key string, def time.Duration) (time.Duration, error) {
	if _, ok := a.vals[key]; !ok {
		return def, nil
	}
	return a.durArg(key)
}

// match fills a rule step's optional peer/plane/dir selectors.
func (a *kvArgs) match(st *Step) error {
	if p, err := a.intArg("peer", int(AnyPeer)); err != nil {
		return fmt.Errorf("bad peer: %v", err)
	} else {
		st.Peer = types.NodeID(p)
	}
	var err error
	if st.Plane, err = a.intArg("plane", AnyPlane); err != nil {
		return fmt.Errorf("bad plane: %v", err)
	}
	if d, ok := a.vals["dir"]; ok {
		a.used["dir"] = true
		if d != DirOut && d != DirIn && d != DirBoth {
			return fmt.Errorf("bad dir %q", d)
		}
		st.Dir = d
	}
	return nil
}

func (a *kvArgs) unused() []string {
	var out []string
	for k := range a.vals {
		if !a.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
