package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FigureIDs lists every experiment the harness can run, in paper order.
func FigureIDs() []string {
	ids := make([]string, 0, len(figures))
	for id := range figures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// figures maps experiment IDs to runners. Each runner returns the tables it
// produced (fig10 returns none: it writes an SVG next to the CSV output, and
// nothing when there is no output directory).
var figures = map[string]func(e *Env, opts RunOptions) ([]*Table, error){
	"fig2": func(e *Env, _ RunOptions) ([]*Table, error) {
		return []*Table{Fig02(e)}, nil
	},
	"fig4": func(e *Env, _ RunOptions) ([]*Table, error) {
		return []*Table{Fig04(e)}, nil
	},
	"fig7": func(e *Env, _ RunOptions) ([]*Table, error) {
		return []*Table{Fig07(e)}, nil
	},
	"fig10": func(e *Env, opts RunOptions) ([]*Table, error) {
		if opts.OutDir == "" {
			fmt.Fprintln(opts.Stdout, "fig10 — skipped: the SVG needs an output directory (knnbench -out)")
			return nil, nil
		}
		path := filepath.Join(opts.OutDir, "fig10.svg")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := Fig10(e, f); err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.Stdout, "fig10 — dataset + quadtree decomposition written to %s\n", path)
		return nil, f.Close()
	},
	"fig11":    one(Fig11),
	"fig12":    one(Fig12),
	"fig13":    one(Fig13),
	"fig14":    one(Fig14),
	"fig15":    one(Fig15),
	"fig16":    one(Fig16),
	"fig17":    one(Fig17),
	"fig18":    one(Fig18),
	"fig19":    one(Fig19),
	"fig20":    one(Fig20),
	"fig21":    one(Fig21),
	"fig22":    two(Fig22),
	"fig23":    two(Fig23),
	"fig24":    one(Fig24),
	"ablation": one(Ablation),
	"capacity": one(CapacitySweep),
}

func one(f func(*Env) (*Table, error)) func(*Env, RunOptions) ([]*Table, error) {
	return func(e *Env, _ RunOptions) ([]*Table, error) {
		t, err := f(e)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

func two(f func(*Env) (*Table, *Table, error)) func(*Env, RunOptions) ([]*Table, error) {
	return func(e *Env, _ RunOptions) ([]*Table, error) {
		a, b, err := f(e)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
}

// RunOptions configure Run.
type RunOptions struct {
	// Stdout receives the aligned-text tables. Nil means os.Stdout.
	Stdout io.Writer
	// OutDir, when non-empty, receives one CSV per table (and fig10.svg).
	OutDir string
}

// Run executes the named experiments (IDs as in FigureIDs; "all" runs
// everything) against a shared Env, printing each table and optionally
// writing CSVs.
func Run(e *Env, ids []string, opts RunOptions) error {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = FigureIDs()
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		runner, ok := figures[id]
		if !ok {
			return fmt.Errorf("harness: unknown experiment %q (known: %v)", id, FigureIDs())
		}
		tables, err := runner(e, opts)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", id, err)
		}
		for _, t := range tables {
			if err := t.Fprint(opts.Stdout); err != nil {
				return err
			}
			fmt.Fprintln(opts.Stdout)
			if opts.OutDir != "" {
				path := filepath.Join(opts.OutDir, t.ID+".csv")
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := t.CSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
