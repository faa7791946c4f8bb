package sweep

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// GridFlags is the command-line grid vocabulary shared by cmd/sweep and
// cmd/sweepd's coordinator: -spec names a JSON spec file, and otherwise
// the comma-separated list flags span the grid's axes.
type GridFlags struct {
	spec, sizes, degrees, deltas, placements, advs, algs *string
	epsilons, churns, faults, joins, losses              *string
	trials                                               *int
	seed                                                 *uint64
}

// RegisterGridFlags defines the grid flags on fs.
func RegisterGridFlags(fs *flag.FlagSet) *GridFlags {
	return &GridFlags{
		spec:       fs.String("spec", "", "JSON spec file (grid flags are ignored when set)"),
		sizes:      fs.String("n", "256,512", "comma-separated network sizes"),
		degrees:    fs.String("d", "8", "comma-separated H-degrees"),
		deltas:     fs.String("delta", "0.75", "comma-separated fault exponents (0 = no faults)"),
		placements: fs.String("placement", "random", "comma-separated placements (random|clustered|spread|degree|chain)"),
		advs:       fs.String("adv", "none,inflate,suppress,oracle,topology-liar,chain-faker,combo", "comma-separated adversaries"),
		algs:       fs.String("alg", "byzantine", "comma-separated algorithms (basic|byzantine)"),
		epsilons:   fs.String("eps", "0", "comma-separated error parameters (0 = default)"),
		churns:     fs.String("churn", "0", "comma-separated crash-churn fractions"),
		faults:     fs.String("fault", "crash", "comma-separated churn fault models (crash|join)"),
		joins:      fs.String("join", "0", "comma-separated join/rejoin churn fractions (join model)"),
		losses:     fs.String("loss", "0", "comma-separated per-edge message loss probabilities"),
		trials:     fs.Int("trials", 8, "trials per grid cell"),
		seed:       fs.Uint64("seed", 1, "base seed"),
	}
}

// Spec builds the grid the parsed flags describe: the -spec file when
// set, else a spec named "cli" from the list flags. A malformed number
// is an error.
func (g *GridFlags) Spec() (Spec, error) {
	if *g.spec != "" {
		return LoadSpec(*g.spec)
	}
	// The first malformed item, in flag order, is the error reported.
	var err error
	ints := func(v string) []int {
		out, e := parseList(v, strconv.Atoi, "integer")
		if err == nil {
			err = e
		}
		return out
	}
	floats := func(v string) []float64 {
		out, e := parseList(v, func(p string) (float64, error) { return strconv.ParseFloat(p, 64) }, "number")
		if err == nil {
			err = e
		}
		return out
	}
	s := Spec{
		Name:        "cli",
		Sizes:       ints(*g.sizes),
		Degrees:     ints(*g.degrees),
		Deltas:      floats(*g.deltas),
		Placements:  splitList(*g.placements),
		Adversaries: splitList(*g.advs),
		Algorithms:  splitList(*g.algs),
		Epsilons:    floats(*g.epsilons),
		ChurnFracs:  floats(*g.churns),
		FaultModels: splitList(*g.faults),
		JoinFracs:   floats(*g.joins),
		LossProbs:   floats(*g.losses),
		Trials:      *g.trials,
		Seed:        *g.seed,
	}
	if err != nil {
		return Spec{}, err
	}
	return s, nil
}

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList parses every item of a comma-separated flag value; what
// names the expected kind in the error.
func parseList[T any](s string, parse func(string) (T, error), what string) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", what, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
