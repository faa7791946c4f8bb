package sweep

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGridFlags pins the shared grid-flag vocabulary of cmd/sweep and
// cmd/sweepd: defaults, list parsing (blank items dropped), -spec
// precedence, and a malformed integer or float surfacing as an error
// that names the bad item.
func TestGridFlags(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(specPath, []byte(`{"name":"file","sizes":[64],"trials":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	defaults := Spec{
		Name:        "cli",
		Sizes:       []int{256, 512},
		Degrees:     []int{8},
		Deltas:      []float64{0.75},
		Placements:  []string{"random"},
		Adversaries: []string{"none", "inflate", "suppress", "oracle", "topology-liar", "chain-faker", "combo"},
		Algorithms:  []string{"byzantine"},
		Epsilons:    []float64{0},
		ChurnFracs:  []float64{0},
		FaultModels: []string{"crash"},
		JoinFracs:   []float64{0},
		LossProbs:   []float64{0},
		Trials:      8,
		Seed:        1,
	}
	grid := defaults
	grid.Sizes = []int{128, 1024}
	grid.Degrees = []int{6, 8}
	grid.Deltas = []float64{0, 0.5}
	grid.Adversaries = []string{"none", "inflate"}
	grid.Algorithms = []string{"basic"}
	grid.LossProbs = []float64{0, 0.05}
	grid.Trials = 3
	grid.Seed = 9

	for _, tc := range []struct {
		name    string
		args    []string
		want    Spec
		wantErr string
	}{
		{name: "defaults", want: defaults},
		{
			name: "grid",
			args: []string{"-n", "128, 1024", "-d", "6,8,", "-delta", "0,0.5", "-adv", "none,inflate",
				"-alg", "basic", "-loss", "0,0.05", "-trials", "3", "-seed", "9"},
			want: grid,
		},
		{name: "spec file wins", args: []string{"-spec", specPath, "-n", "oops"},
			want: Spec{Name: "file", Sizes: []int{64}, Trials: 2}},
		{name: "bad integer", args: []string{"-d", "8,x"}, wantErr: `bad integer "x"`},
		{name: "bad float", args: []string{"-loss", "0,0.1.2"}, wantErr: `bad number "0.1.2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("grid", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			g := RegisterGridFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := g.Spec()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("spec = %+v\nwant   %+v", got, tc.want)
			}
		})
	}
}
