package analysis

import (
	"go/ast"
	"strings"
)

// Wallclock flags host-clock and host-environment reads in
// simulation-side packages. The simulation's only clock is the engine's
// virtual time (sim.Time); a time.Now or time.Sleep there measures the
// host instead of the model, ambient math/rand state couples results to
// process history (and, since parallel sweeps, to scheduling), and
// os.Getenv makes a run irreproducible from its recorded configuration.
// Host-side packages (cmd/, examples/, internal/simbench,
// internal/tracecli) are exempt: real benchmarking wants real clocks.
// Legitimate uses inside the scope carry //upcvet:wallclock with a
// reason (see the package doc for the annotation grammar).
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "flag wall-clock time, ambient randomness and environment reads " +
		"in simulation-side packages; virtual time is the only clock there",
	Run: runWallclock,
}

// wallclockTimeFuncs are the time-package functions that read or wait on
// the host clock. Pure conversions (time.Duration arithmetic,
// ParseDuration) are fine.
var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// wallclockRandOK are the math/rand constructors that build seeded,
// locally owned generators — the deterministic pattern the engine uses
// (rand.New(rand.NewSource(seed))). Everything else on the package —
// rand.Intn, rand.Float64, rand.Shuffle, rand.Seed, ... — runs off the
// ambient process-global state and is flagged.
var wallclockRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallclockEnvFuncs are the os-package environment readers.
var wallclockEnvFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// faultPkg is the fault-injection package, held to a stricter randomness
// rule: even the seeded-constructor pattern is banned there. Every
// fault-probability draw must come off the engine's own PRNG
// (sim.Engine.Rand) — a private generator, however seeded, would let the
// injector's decisions drift from the (seed, schedule) contract that
// makes chaos runs bit-reproducible.
const faultPkg = "repro/internal/fault"

// strictRand reports whether the package forbids constructing any
// math/rand generator at all.
func strictRand(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == faultPkg || strings.HasPrefix(path, faultPkg+"/")
}

func runWallclock(pass *Pass) error {
	if !SimSide(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgNameOf(pass.Info, sel.X) {
			case "time":
				if wallclockTimeFuncs[name] {
					pass.Reportf(call.Pos(),
						"time.%s reads the host clock; simulation code must use virtual time (sim.Engine.Now / Proc.Sleep)", name)
				}
			case "math/rand", "math/rand/v2":
				if strictRand(pass.Path) {
					pass.Reportf(call.Pos(),
						"rand.%s in internal/fault: fault-probability draws must come from the engine's seeded PRNG (sim.Engine.Rand), not a private generator", name)
				} else if !wallclockRandOK[name] {
					pass.Reportf(call.Pos(),
						"rand.%s uses ambient process-global randomness; use a seeded rand.New(rand.NewSource(seed)) owned by the run", name)
				}
			case "os":
				if wallclockEnvFuncs[name] {
					pass.Reportf(call.Pos(),
						"os.%s makes simulation behavior depend on the host environment; thread configuration through Config instead", name)
				}
			}
			return true
		})
	}
	return nil
}
