package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"csspgo/internal/introspect"
	"csspgo/internal/quality"
)

// cmdInspect introspects binaries and profiles: binary layout (-bin alone),
// the context trie of a profile (-profile), its folded-stack flamegraph
// export (-folded / -top), per-function probe coverage against a binary
// (-coverage), and analytics diffing two profiles (-diff old new).
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	binPath := fs.String("bin", "", "binary path (layout view; with -coverage, the probe source)")
	profPath := fs.String("profile", "", "profile to inspect (text or binary format)")
	folded := fs.Bool("folded", false, "print the folded-stack (flamegraph-collapsed) export")
	top := fs.Int("top", 0, "print the N heaviest folded stacks")
	coverage := fs.Bool("coverage", false, "print per-function probe coverage (needs -bin and -profile)")
	diff := fs.Bool("diff", false, "diff two profiles given as positional args: overlap, gained/lost contexts, divergence")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	_ = fs.Parse(args)

	emit := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("inspect -diff: want old.prof new.prof, got %d arg(s)", fs.NArg())
		}
		old, err := loadProfile(fs.Arg(0))
		if err != nil {
			return err
		}
		new, err := loadProfile(fs.Arg(1))
		if err != nil {
			return err
		}
		d := quality.DiffProfiles(old, new)
		if *jsonOut {
			return emit(d)
		}
		fmt.Printf("diff %s -> %s\n", fs.Arg(0), fs.Arg(1))
		fmt.Print(d.Format())
		return nil
	}

	if *profPath != "" {
		prof, err := loadProfile(*profPath)
		if err != nil {
			return err
		}
		switch {
		case *coverage:
			if *binPath == "" {
				return fmt.Errorf("inspect -coverage: need -bin for the probe metadata")
			}
			bin, err := loadBin(*binPath)
			if err != nil {
				return err
			}
			covs, err := quality.Coverage(bin, prof)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emit(covs)
			}
			fmt.Print(quality.FormatCoverage(covs))
		case *folded, *top > 0:
			entries := introspect.Folded(prof)
			if *top > 0 {
				entries = introspect.Top(entries, *top)
			}
			if *jsonOut {
				type row struct {
					Stack  string `json:"stack"`
					Weight uint64 `json:"weight"`
				}
				rows := make([]row, len(entries))
				for i, e := range entries {
					rows[i] = row{Stack: e.Key(), Weight: e.Weight}
				}
				return emit(rows)
			}
			if *top > 0 {
				for _, e := range entries {
					fmt.Printf("%12d %s\n", e.Weight, e.Key())
				}
			} else {
				os.Stdout.Write(introspect.EncodeFoldedText(entries))
			}
		default:
			fmt.Print(introspect.BuildTrie(prof).Format())
		}
		return nil
	}

	if *binPath == "" {
		return fmt.Errorf("inspect: need -bin (binary layout) or -profile (trie/folded/coverage) or -diff old new")
	}
	bin, err := loadBin(*binPath)
	if err != nil {
		return err
	}
	fmt.Println(bin)
	fmt.Printf("%-24s %10s %10s %8s\n", "function", "start", "size B", "cold B")
	for _, fn := range bin.Funcs {
		cold := fn.ColdEnd - fn.ColdStart
		fmt.Printf("%-24s %#10x %10d %8d\n", fn.Name, fn.Start, fn.End-fn.Start, cold)
	}
	fmt.Printf("sections: text=%dB debug=%dB probemeta=%dB\n", bin.TextSize, bin.DebugSize, bin.ProbeMetaSize)
	return nil
}
