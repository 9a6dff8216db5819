package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// unreachedFixtureDump is the fixture's reached set as -dumpdep lines:
// a plain function, both receiver forms, a generic method at a shape
// instantiation, the function behind the stale allow, and the one that
// looks methods up by reflection.
const unreachedFixtureDump = `# qarv/cmd/tool
main.main -> qarv/internal/sim.Reached
main.main -> qarv/internal/sim.(*T).PtrReached
type:qarv/internal/sim.T <UsedInIface> -> qarv/internal/sim.T.ValReached
main.main -> qarv/internal/sim.(*Set[go.shape.int]).Add
main.main -> qarv/internal/sim.Stale
main.main -> qarv/internal/sim.Reflective
`

// unreachedFixtureDir is the fixture package the findings point into.
const unreachedFixtureDir = "testdata/unreached/src/qarv/internal/sim"

// unreachedWant is the analyzer's expected findings on the fixture:
// every unlinked declaration without a reasoned allow, the reasonless
// allow, the stale allow on a linked function, and every reflective
// method lookup, the main package's included.
const unreachedWant = "testdata/unreached/src/qarv/cmd/tool/main.go:9: reflect.Type.MethodByName" + reflectFinding +
	unreachedFixtureDir + "/reflect.go:8: reflect.Value.MethodByName" + reflectFinding +
	unreachedFixtureDir + "/reflect.go:9: reflect.Value.Method" + reflectFinding +
	unreachedFixtureDir + "/reflect.go:10: reflect.Type.MethodByName" + reflectFinding +
	unreachedFixtureDir + "/reflect.go:11: reflect.Type.Method" + reflectFinding +
	unreachedFixtureDir + "/sim.go:7: Unreached is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:12: (*T).PtrUnreached is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:14: T.ValUnreached is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:19: (*Set).Has is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:23: Pair.Swap is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:28: qarv:allow unreached carries no reason — every allowance must say why (qarvallow)\n" +
	unreachedFixtureDir + "/sim.go:29: Reasonless is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason (unreached)\n" +
	unreachedFixtureDir + "/sim.go:31: qarv:allow unreached on Stale, which a program reaches; delete the directive (qarvallow)\n"

// reflectFinding is the text after the method in a reflective lookup's
// finding.
const reflectFinding = " makes the linker keep methods no call reaches, which unreached then cannot report; call the method through an interface (unreached)\n"

// TestUnreachedAnalyzerFindings runs the analyzer through the full
// driver over the fixture with an injected reached set, so it needs no
// build, and pins its findings; the fixture's main package reports
// only its reflective lookup.
func TestUnreachedAnalyzerFindings(t *testing.T) {
	set := make(map[string]bool)
	if err := parseDumpdep(strings.NewReader(unreachedFixtureDump), "qarv", set, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	analyzer := newUnreachedAnalyzer(func(string) (map[string]bool, error) { return set, nil })
	loader := NewLoaderAt("qarv", filepath.Join("testdata", "unreached", "src", "qarv"))
	var pkgs []*Package
	for _, path := range []string{"qarv/internal/sim", "qarv/cmd/tool"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := Run(pkgs, []*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var got bytes.Buffer
	for _, d := range diags {
		fmt.Fprintf(&got, "%s:%d: %s (%s)\n", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Message, d.Analyzer)
	}
	if got.String() != unreachedWant {
		t.Errorf("analyzer findings diverged:\ngot:\n%swant:\n%s", got.String(), unreachedWant)
	}
}

// TestParseDumpdep feeds the parser lines copied from a real
// -ldflags=-dumpdep run over the module's mains. Interface-reached
// types carry a " <UsedInIface>" marker, closures, go/defer wrappers and
// method values map to their function, generic instantiations lose
// their brackets, only the module's symbols are kept, and a funcdata
// symbol the linker shares between functions with identical data
// (NewScenario's edge to experiments.Fig1.arginfo1) does not make
// experiments.Fig1 reached.
func TestParseDumpdep(t *testing.T) {
	const dump = `# qarv/cmd/qarvfig
main.runFig1 -> qarv/internal/experiments.Fig1Context
qarv.NewScenario -> qarv/internal/experiments.NewScenario
qarv/internal/experiments.NewScenario -> qarv/internal/experiments.Fig1.arginfo1
main.run -> type:qarv/internal/queueing.Verdict <UsedInIface>
type:qarv/internal/queueing.Verdict <UsedInIface> -> qarv/internal/queueing.(*Verdict).String
type:*qarv/internal/alloc.MaxWeight <UsedInIface> -> qarv/internal/alloc.(*MaxWeight).Allocate
qarv/internal/alloc.(*MaxWeight).Allocate -> qarv/internal/alloc.(*MaxWeight).Allocate.argliveinfo
qarv/internal/obs.(*Registry).Snapshot -> qarv/internal/obs.sortedKeys[go.shape.*uint8]
qarv/internal/queueing.(*FrameQueue).Push -> qarv/internal/queueing.appendSlot[go.shape.struct { ID int; Work float64; Remaining float64; EnqueuedAt int; Depth int }]
crypto/elliptic.(*nistCurve[*crypto/internal/fips140/nistec.P521Point]).Add -> crypto/elliptic.(*nistCurve[go.shape.*uint8]).Add
qarv/internal/experiments.RunPool.func1 -> qarv/internal/experiments.RunPool.func1.deferwrap1
main.crossNetwork.func1 -> qarv/internal/geom.(*RNG).Split-fm
qarv/cmd/internal/telemetry.(*Sinks).Export -> qarv/internal/obs.(*FlightRecorder).WriteTrace-fm
qarv/internal/content.loadAsset.deferwrap1 -> os.(*File).Close.wrapinfo
runtime.exitsyscallfast_reacquired -> qarv/cmd/internal/names.Network.stkobj
 -> go:info.*qarv/internal/experiments.Fig1Row
`
	set := make(map[string]bool)
	var other bytes.Buffer
	if err := parseDumpdep(strings.NewReader(dump), "qarv", set, &other); err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{
		"qarv/internal/experiments.Fig1Context",
		"qarv/internal/experiments.NewScenario",
		"qarv.NewScenario",
		"qarv/internal/queueing.(*Verdict).String",
		"qarv/internal/alloc.(*MaxWeight).Allocate",
		"qarv/internal/obs.(*Registry).Snapshot",
		"qarv/internal/obs.sortedKeys",
		"qarv/internal/queueing.appendSlot",
		"qarv/internal/experiments.RunPool",
		"qarv/internal/geom.(*RNG).Split",
		"qarv/internal/obs.(*FlightRecorder).WriteTrace",
		"qarv/internal/content.loadAsset",
	} {
		if !set[sym] {
			t.Errorf("%s not reached", sym)
		}
	}
	// Funcdata symbols name no declaration, and symbols outside the
	// module are not kept.
	for _, sym := range []string{
		"qarv/internal/experiments.Fig1",
		"qarv/cmd/internal/names.Network",
		"os.(*File).Close",
		"crypto/elliptic.(*nistCurve).Add",
		"type:qarv/internal/queueing.Verdict",
		"main.run",
	} {
		if set[sym] {
			t.Errorf("%s in the reached set", sym)
		}
	}
	if other.String() != "# qarv/cmd/qarvfig\n" {
		t.Errorf("non-edge lines = %q, want the package header", other.String())
	}
}
