// Command ipdelta is the toolchain for in-place reconstructible delta
// files: generate deltas, convert them for in-place application, inspect,
// verify, and apply them.
//
// Usage:
//
//	ipdelta diff    -ref OLD -version NEW -out FILE [-algo A] [-format F] [-inplace] [-policy P] [-scratch N]
//	ipdelta convert -ref OLD -delta IN -out FILE [-policy P] [-format F] [-metrics]
//	ipdelta patch   -ref OLD -delta FILE -out NEW [-inplace]
//	ipdelta info    -delta FILE
//	ipdelta verify  -ref OLD -delta FILE -version NEW
//	ipdelta compose -first A2B -second B2C -out A2C [-format F]
//	ipdelta invert  -ref OLD -delta FILE -out FILE [-format F]
//	ipdelta chunk   [-min N] [-avg N] [-max N] [-out RECIPE] FILE...
//
// Algorithms: linear (default), greedy, blockwise, suffix, correcting, null.
// Formats: ordered, offsets, legacy-ordered, legacy-offsets, compact, scratch.
// Policies: locally-minimum (default), constant-time.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
	"ipdelta/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ipdelta:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: ipdelta {diff|convert|patch|info|verify|compose|invert|chunk} [flags]")
	}
	switch args[0] {
	case "diff":
		return cmdDiff(args[1:])
	case "convert":
		return cmdConvert(args[1:])
	case "patch":
		return cmdPatch(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "compose":
		return cmdCompose(args[1:])
	case "invert":
		return cmdInvert(args[1:])
	case "chunk":
		return cmdChunk(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference (old) file")
	versionPath := fs.String("version", "", "version (new) file")
	outPath := fs.String("out", "", "output delta file")
	algoName := fs.String("algo", "linear", "differencing algorithm: linear, greedy, blockwise, suffix, correcting, null")
	formatName := fs.String("format", "", "wire format (default: ordered, or compact with -inplace)")
	inPlace := fs.Bool("inplace", false, "convert the delta for in-place reconstruction")
	policyName := fs.String("policy", "locally-minimum", "cycle-breaking policy")
	scratch := fs.Int64("scratch", 0, "device scratch budget in bytes (implies -inplace, scratch format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *versionPath == "" || *outPath == "" {
		return errors.New("diff: -ref, -version and -out are required")
	}
	if *scratch > 0 {
		*inPlace = true
	}
	ref, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	version, err := os.ReadFile(*versionPath)
	if err != nil {
		return err
	}
	algo, err := diff.ByName(*algoName)
	if err != nil {
		return err
	}
	d, err := algo.Diff(ref, version)
	if err != nil {
		return err
	}
	format := codec.FormatOrdered
	if *inPlace {
		format = codec.FormatCompact
		policy, err := graph.PolicyByName(*policyName)
		if err != nil {
			return err
		}
		opts := []inplace.Option{inplace.WithPolicy(policy)}
		if *scratch > 0 {
			opts = append(opts, inplace.WithScratchBudget(*scratch))
			format = codec.FormatScratch
		}
		d, _, err = inplace.Convert(d, ref, opts...)
		if err != nil {
			return err
		}
	}
	if *formatName != "" {
		format, err = codec.ParseFormat(*formatName)
		if err != nil {
			return err
		}
	}
	if *inPlace && !format.InPlaceCapable() {
		return fmt.Errorf("format %v cannot carry an in-place delta", format)
	}
	n, err := writeDelta(*outPath, d, format)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %s): %s -> %s, %.1f%% of version size\n",
		*outPath, format, algo.Name(), stats.Bytes(int64(len(version))), stats.Bytes(n),
		100*float64(n)/float64(max64(1, int64(len(version)))))
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference (old) file")
	deltaPath := fs.String("delta", "", "input delta file")
	outPath := fs.String("out", "", "output delta file")
	policyName := fs.String("policy", "locally-minimum", "cycle-breaking policy")
	formatName := fs.String("format", "compact", "output wire format")
	metrics := fs.Bool("metrics", false, "print a metrics snapshot (stage timings, counters) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *deltaPath == "" || *outPath == "" {
		return errors.New("convert: -ref, -delta and -out are required")
	}
	ref, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	d, _, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	policy, err := graph.PolicyByName(*policyName)
	if err != nil {
		return err
	}
	format, err := codec.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	if !format.InPlaceCapable() {
		return fmt.Errorf("format %v cannot carry an in-place delta", format)
	}
	opts := []inplace.Option{inplace.WithPolicy(policy)}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		opts = append(opts, inplace.WithObserver(reg))
	}
	out, st, err := inplace.Convert(d, ref, opts...)
	if err != nil {
		return err
	}
	n, err := writeDelta(*outPath, out, format)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %s): %d copies, %d adds, %d edges, %d cycles broken, %d components split, %d copies converted (%s)\n",
		*outPath, stats.Bytes(n), format, st.Copies, st.Adds, st.Edges, st.CyclesBroken,
		st.SplitComponents, st.ConvertedCopies, stats.Bytes(st.ConvertedBytes))
	if reg != nil {
		fmt.Fprint(os.Stderr, reg.Snapshot().Text())
	}
	return nil
}

func cmdPatch(args []string) error {
	fs := flag.NewFlagSet("patch", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference (old) file")
	deltaPath := fs.String("delta", "", "delta file")
	outPath := fs.String("out", "", "output version file")
	inPlace := fs.Bool("inplace", false, "reconstruct in a single buffer (delta must be in-place safe)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *deltaPath == "" || *outPath == "" {
		return errors.New("patch: -ref, -delta and -out are required")
	}
	ref, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	d, _, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	var version []byte
	if *inPlace {
		if err := d.CheckInPlace(); err != nil {
			return fmt.Errorf("delta is not in-place safe: %w", err)
		}
		buf := make([]byte, d.InPlaceBufLen())
		copy(buf, ref)
		if err := d.ApplyInPlace(buf); err != nil {
			return err
		}
		version = buf[:d.VersionLen]
	} else {
		version, err = d.Apply(ref)
		if err != nil {
			return err
		}
	}
	if err := os.WriteFile(*outPath, version, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s)\n", *outPath, stats.Bytes(int64(len(version))))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	deltaPath := fs.String("delta", "", "delta file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deltaPath == "" {
		return errors.New("info: -delta is required")
	}
	d, format, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	fmt.Printf("format:      %s (in-place capable: %v)\n", format, format.InPlaceCapable())
	fmt.Printf("reference:   %s\n", stats.Bytes(d.RefLen))
	fmt.Printf("version:     %s\n", stats.Bytes(d.VersionLen))
	copies, adds := d.NumCopies(), d.NumAdds()
	fmt.Printf("commands:    %d (%d copies, %d adds", len(d.Commands), copies, adds)
	if n := len(d.Commands) - copies - adds; n > 0 {
		fmt.Printf(", %d stash/unstash", n)
	}
	fmt.Println(")")
	fmt.Printf("copy bytes:  %s\n", stats.Bytes(d.CopiedBytes()))
	fmt.Printf("add bytes:   %s\n", stats.Bytes(d.AddedBytes()))
	if err := d.Summarize().Render(os.Stdout); err != nil {
		return err
	}
	if err := d.CheckInPlace(); err != nil {
		fmt.Printf("in-place:    NOT safe (%v)\n", err)
	} else {
		fmt.Printf("in-place:    safe (Equation 2 holds)\n")
	}
	a, err := inplace.Analyze(d)
	if err != nil {
		return err
	}
	fmt.Printf("CRWI graph:  %d edges, %d cyclic components (largest %d, %d copies entangled)\n",
		a.Edges, a.CyclicComponents, a.LargestComponent, a.VerticesInCycles)
	switch {
	case a.AlreadySafe:
		// nothing further to do
	case a.ReorderSufficient:
		fmt.Printf("conversion:  permutation alone suffices (no data conversion needed)\n")
	default:
		split := 0
		for _, cs := range a.CycleSacrifices {
			if cs.Split {
				split++
			}
		}
		fmt.Printf("conversion:  needs ≥%s as adds; converting (locally-minimum, %d of %d components split) moves %s\n",
			stats.Bytes(a.MinConversionBytes), split, a.CyclicComponents, stats.Bytes(a.LocallyMinimumBytes))
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference (old) file")
	deltaPath := fs.String("delta", "", "delta file")
	versionPath := fs.String("version", "", "expected version file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *deltaPath == "" || *versionPath == "" {
		return errors.New("verify: -ref, -delta and -version are required")
	}
	ref, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(*versionPath)
	if err != nil {
		return err
	}
	d, _, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("delta invalid: %w", err)
	}
	got, err := d.Apply(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("verify: delta does not reproduce the version file")
	}
	fmt.Println("ok: delta reproduces the version file")
	if err := d.CheckInPlace(); err == nil {
		buf := make([]byte, d.InPlaceBufLen())
		copy(buf, ref)
		if err := d.ApplyInPlace(buf); err != nil {
			return err
		}
		if !bytes.Equal(buf[:d.VersionLen], want) {
			return errors.New("verify: in-place application diverged")
		}
		fmt.Println("ok: in-place application reproduces the version file")
	} else {
		fmt.Println("note: delta is not in-place safe; skipped in-place check")
	}
	return nil
}

func cmdCompose(args []string) error {
	fs := flag.NewFlagSet("compose", flag.ContinueOnError)
	firstPath := fs.String("first", "", "delta A→B")
	secondPath := fs.String("second", "", "delta B→C")
	outPath := fs.String("out", "", "output delta A→C")
	formatName := fs.String("format", "ordered", "output wire format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *firstPath == "" || *secondPath == "" || *outPath == "" {
		return errors.New("compose: -first, -second and -out are required")
	}
	first, _, err := readDelta(*firstPath)
	if err != nil {
		return err
	}
	second, _, err := readDelta(*secondPath)
	if err != nil {
		return err
	}
	format, err := codec.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	out, err := delta.Compose(first, second)
	if err != nil {
		return err
	}
	n, err := writeDelta(*outPath, out, format)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %s): %d commands\n", *outPath, stats.Bytes(n), format, len(out.Commands))
	return nil
}

func cmdInvert(args []string) error {
	fs := flag.NewFlagSet("invert", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference (old) file of the input delta")
	deltaPath := fs.String("delta", "", "input delta (old → new)")
	outPath := fs.String("out", "", "output reverse delta (new → old)")
	formatName := fs.String("format", "ordered", "output wire format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *deltaPath == "" || *outPath == "" {
		return errors.New("invert: -ref, -delta and -out are required")
	}
	ref, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	d, _, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	format, err := codec.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	inv, err := delta.Invert(d, ref)
	if err != nil {
		return err
	}
	n, err := writeDelta(*outPath, inv, format)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %s): reverse delta, %d commands\n", *outPath, stats.Bytes(n), format, len(inv.Commands))
	return nil
}

func readDelta(path string) (*delta.Delta, codec.Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return codec.Decode(f)
}

func writeDelta(path string, d *delta.Delta, format codec.Format) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := codec.Encode(f, d, format)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
