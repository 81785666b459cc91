// Command preinliner runs the offline context-sensitive pre-inliner
// (paper Algorithms 2 and 3) over a context-sensitive profile: it trims
// cold contexts, extracts per-context function sizes from the profiled
// binary, makes global top-down inline decisions, adjusts the profile
// accordingly, and persists the decisions (ShouldInline markers) for the
// compiler to honor.
//
// Usage:
//
//	preinliner -bin app.bin -profile app.prof -o app.preinlined.prof [-trim N]
package main

import (
	"flag"
	"fmt"
	"os"

	"csspgo/internal/machine"
	"csspgo/internal/pgo"
	"csspgo/internal/profdata"
)

func main() {
	binPath := flag.String("bin", "app.bin", "profiled binary (function-size source)")
	profPath := flag.String("profile", "app.prof", "context-sensitive profile (text)")
	out := flag.String("o", "app.preinlined.prof", "output profile path")
	trim := flag.Uint64("trim", 0, "cold-context trim threshold (0 = auto: 0.05% of samples)")
	flag.Parse()

	if err := run(*binPath, *profPath, *out, *trim); err != nil {
		fmt.Fprintf(os.Stderr, "preinliner: %v\n", err)
		os.Exit(1)
	}
}

func run(binPath, profPath, out string, trim uint64) error {
	f, err := os.Open(binPath)
	if err != nil {
		return err
	}
	bin, err := machine.ReadProg(f)
	f.Close()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	prof, err := profdata.Decode(data)
	if err != nil {
		return err
	}
	if !prof.CS {
		return fmt.Errorf("%s is not a context-sensitive profile", profPath)
	}
	trimmed, res := pgo.TrimAndPreInline(prof, bin, trim)
	if err := os.WriteFile(out, []byte(profdata.EncodeToString(prof)), 0o644); err != nil {
		return err
	}
	fmt.Printf("trimmed %d cold contexts; marked %d contexts for inlining, promoted %d; wrote %s\n",
		trimmed, res.Inlined, res.Promoted, out)
	return nil
}
