package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Scripts shared by the unit tests and the parser's fuzz seeds.
const (
	ruleScript = `
seed 7
at 0s drop p=0.3 peer=1 dir=out
at 0s dup p=0.2 peer=2 dir=out
at 0s delay d=1ms plane=1 dir=in
`
	mixedScript = `
# fault schedule
seed 99
at 2s nic-down plane=0
at 500ms drop p=0.25 peer=3 dir=in
at 4s partition 0,1|2,3
at 6s heal
at 8s kill node=2
`
	killScript = "at 1ms kill node=3\nat 1ms nic-down plane=0"
)

var garbageScripts = []string{
	"at 2s explode",
	"at two-seconds heal",
	"at 1s drop", // missing p=
	"at 1s drop p=1.5",
	"at 1s drop p=NaN",
	"at 1s nic-down",
	"at 1s kill",
	"at 1s partition 0,1",
	"at 1s drop p=0.1 dir=sideways",
	"at 1s heal extra=arg",
	"seed many",
}

// repeatScript is the cluster repeatability test's schedule on its
// 4×8-node shape: a server kill, two compute kills, a cut and a heal.
func repeatScript() string {
	var lo, hi []string
	for n := 0; n < 16; n++ {
		lo, hi = append(lo, fmt.Sprint(n)), append(hi, fmt.Sprint(n+16))
	}
	return fmt.Sprintf("seed 1\nat 10s kill node=8\nat 12s kill node=19\nat 12s kill node=21\nat 25s partition %s|%s\nat 35s heal\n",
		strings.Join(lo, ","), strings.Join(hi, ","))
}

// FuzzParse: Parse never panics, and every schedule it accepts survives
// a round trip through Step.String — what phoenix-chaos prints parses
// back to the same steps.
func FuzzParse(f *testing.F) {
	for _, s := range append([]string{ruleScript, mixedScript, killScript, repeatScript(),
		"at 3s slow d=200ms ramp=2s peer=4 plane=1 dir=both\nat 9s clear\nat 9s nic-up plane=1"}, garbageScripts...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(text)
		if err != nil {
			return
		}
		steps := sc.Resolve()
		var sb strings.Builder
		for _, st := range steps {
			sb.WriteString(st.String() + "\n")
		}
		again, err := Parse(sb.String())
		if err != nil {
			t.Fatalf("the printed schedule does not parse: %v\n%s", err, sb.String())
		}
		if got := again.Resolve(); !reflect.DeepEqual(got, steps) {
			t.Fatalf("round trip changed the steps:\nparsed  %+v\nprinted %q\nreparsed %+v", steps, sb.String(), got)
		}
	})
}
