// Command hoiho learns ASN naming conventions from router hostnames
// annotated with training ASNs, reimplementing the sc_hoiho tool the
// paper ships in scamper.
//
// Input formats (chosen by -format):
//
//	plain: one observation per line, "hostname asn [address]"
//	itdk:  an ITDK snapshot produced by cmd/itdkgen or itdk.WriteTo
//
// Output: learned conventions per suffix, as text or JSON (-json),
// including per-regex evaluation and the good/promising/poor class.
//
// A learned corpus can be saved and re-applied at scale (§7's workflow):
// -save writes the corpus after learning — the stable JSON form by
// default, or the HBC binary form (-save-format bin, or any path ending
// in .hbc), which loads to ready-to-serve state without JSON parsing or
// matcher recompilation. -apply loads either form (sniffed by content)
// and streams hostnames through the extraction engine, emitting one
// "hostname<TAB>asn" line per match. -classes restricts application to
// the good or usable (good+promising) conventions. The same saved file
// is what the extraction daemon serves: `hoihod -corpus ncs.json` (or
// `-corpus ncs.hbc` for fast cold start) exposes it over HTTP with hot
// reload (SIGHUP picks up a re-learned file atomically), load shedding,
// and graceful drain.
//
// For fleet upgrades, -diff computes the HBD rollout delta between two
// saved corpora (`hoiho -diff old.hbc new.hbc -o patch.hbd`): a small
// patch chained to the old corpus's fingerprint that the hoihoc
// coordinator resolves and ships instead of the full corpus.
//
// Example:
//
//	hoiho -format itdk itdk-2020-01.txt
//	hoiho -json training.txt > ncs.json
//	hoiho -save ncs.json training.txt
//	hoiho -save ncs.hbc training.txt          # binary corpus, ~7x faster cold start
//	hoiho -apply ncs.hbc -classes usable ptr-records.txt
//	zcat ptr.gz | hoiho -apply ncs.json -
//
// Long runs are interruptible: SIGINT/SIGTERM (or -timeout) cancels the
// pipeline cleanly, and -checkpoint/-resume let an interrupted learning
// run pick up where it stopped:
//
//	hoiho -checkpoint ck.json -save ncs.json training.txt   # interrupted…
//	hoiho -checkpoint ck.json -resume -save ncs.json training.txt
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"hoiho/internal/asn"
	"hoiho/internal/asnames"
	"hoiho/internal/atomicfile"
	"hoiho/internal/core"
	"hoiho/internal/extract"
	"hoiho/internal/itdk"
	"hoiho/internal/psl"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hoiho:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoiho", flag.ContinueOnError)
	format := fs.String("format", "plain", "input format: plain or itdk")
	jsonOut := fs.Bool("json", false, "emit learned conventions as JSON")
	minItems := fs.Int("min-items", 4, "minimum training items per suffix")
	pslPath := fs.String("psl", "", "public suffix list file (default: embedded snapshot)")
	noMerge := fs.Bool("no-merge", false, "ablation: disable phase 2 (merge regexes)")
	noClasses := fs.Bool("no-classes", false, "ablation: disable phase 3 (character classes)")
	noSets := fs.Bool("no-sets", false, "ablation: disable phase 4 (regex sets)")
	noTypo := fs.Bool("no-typo-credit", false, "ablation: disable the edit-distance-1 TP credit")
	names := fs.Bool("names", false, "learn AS *name* conventions (§7 extension); plain input becomes \"hostname name\"")
	matches := fs.Bool("matches", false, "show per-hostname classifications under each convention (the paper's data-supplement view)")
	diffMode := fs.Bool("diff", false, "compute an HBD rollout delta between two saved corpora: hoiho -diff <old> <new> -o patch.hbd")
	diffOut := fs.String("o", "", "with -diff: write the delta to this file (required)")
	savePath := fs.String("save", "", "after learning, save the conventions to this file (format per -save-format)")
	saveFormat := fs.String("save-format", "auto", "with -save: auto (a .hbc path writes the HBC binary corpus, anything else JSON), json, or bin")
	applyPath := fs.String("apply", "", "apply a saved conventions JSON to hostnames from <file> (or - for stdin); emits hostname<TAB>asn")
	classes := fs.String("classes", "usable", "with -apply: which conventions to use: good, usable, or all")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	timeout := fs.Duration("timeout", 0, "overall wall-clock budget (0: none); on expiry the run stops cleanly")
	suffixTimeout := fs.Duration("suffix-timeout", 0, "per-suffix learning budget (0: none); a suffix over budget is quarantined, not fatal")
	checkpoint := fs.String("checkpoint", "", "periodically record completed suffixes to this file while learning")
	resume := fs.Bool("resume", false, "with -checkpoint: skip suffixes the checkpoint already records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *diffMode {
		// Stdlib flag parsing stops at the first positional, but the
		// natural spelling puts -o after the corpus paths (`hoiho -diff
		// old new -o patch.hbd`); re-parse interleaved flags here.
		rest := fs.Args()
		var inputs []string
		for len(rest) > 0 {
			if strings.HasPrefix(rest[0], "-") && len(rest[0]) > 1 {
				if err := fs.Parse(rest); err != nil {
					return err
				}
				rest = fs.Args()
				continue
			}
			inputs = append(inputs, rest[0])
			rest = rest[1:]
		}
		if len(inputs) != 2 {
			return fmt.Errorf("usage: hoiho -diff <old-corpus> <new-corpus> -o patch.hbd")
		}
		if *diffOut == "" {
			return fmt.Errorf("-diff requires -o <patch.hbd> (the delta output path)")
		}
		return runDiff(inputs[0], inputs[1], *diffOut)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hoiho [flags] <training-file>")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hoiho:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hoiho:", err)
			}
		}()
	}
	if *applyPath != "" {
		return runApply(ctx, *applyPath, fs.Arg(0), out, *classes)
	}

	list := psl.Default()
	if *pslPath != "" {
		f, err := os.Open(*pslPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if list, err = psl.Parse(f); err != nil {
			return err
		}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	if *names {
		if *format != "plain" {
			return fmt.Errorf("-names requires -format plain")
		}
		return runNames(f, out, list, *minItems)
	}

	var items []core.Item
	switch *format {
	case "plain":
		items, err = parsePlain(f)
	case "itdk":
		var snap *itdk.Snapshot
		if snap, err = itdk.Parse(f); err == nil {
			items = snap.TrainingItems()
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}

	learner := &core.Learner{
		MinItems:   *minItems,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		Opts: core.Options{
			DisableMerge:      *noMerge,
			DisableClasses:    *noClasses,
			DisableSets:       *noSets,
			DisableTypoCredit: *noTypo,
			SuffixTimeout:     *suffixTimeout,
		},
	}
	report, err := learner.Learn(ctx, list, items)
	if err != nil {
		if report == nil {
			return err // setup failure (bad checkpoint, nil PSL), not an interrupt
		}
		// Interrupted (signal or -timeout). The checkpoint, if configured,
		// has already been flushed with every suffix completed so far.
		msg := fmt.Sprintf("interrupted (%v): %d suffixes learned", err, report.Learned+report.Resumed)
		if *checkpoint != "" {
			msg += fmt.Sprintf("; progress saved to %s — rerun with -resume to continue", *checkpoint)
		}
		return fmt.Errorf("%s", msg)
	}
	for _, q := range report.Quarantined {
		fmt.Fprintf(os.Stderr, "hoiho: warning: suffix %s quarantined: %v\n", q.Suffix, q.Err)
	}
	ncs := report.NCs

	if *savePath != "" {
		c := extract.New(ncs, extract.WithPSL(list))
		switch *saveFormat {
		case "auto":
			err = c.SaveFile(*savePath)
		case "json":
			err = c.SaveFileJSON(*savePath)
		case "bin":
			err = c.SaveFileBinary(*savePath)
		default:
			return fmt.Errorf("unknown -save-format %q (want auto, json, or bin)", *saveFormat)
		}
		if err != nil {
			return err
		}
		// The saved file is exactly what the serving side loads — both
		// one-shot (-apply) and the long-running daemon sniff the format
		// by content, so JSON and HBC files are interchangeable here.
		fmt.Fprintf(os.Stderr, "hoiho: saved %d conventions to %s; apply with `hoiho -apply %s <hosts>` or serve with `hoihod -corpus %s`\n",
			len(ncs), *savePath, *savePath, *savePath)
	}

	if *jsonOut {
		data, err := core.MarshalNCs(ncs)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(data))
		return err
	}
	fmt.Fprintf(out, "# %d training items, %d conventions\n", len(items), len(ncs))
	var groups map[string][]core.Item
	if *matches {
		groups, _ = core.GroupItems(list, items)
	}
	for _, nc := range ncs {
		tag := nc.Class.String()
		if nc.Single {
			tag += ",single"
		}
		fmt.Fprintf(out, "%s: %s  TP=%d FP=%d FN=%d ATP=%d PPV=%.3f unique=%d\n",
			nc.Suffix, tag, nc.Eval.TP, nc.Eval.FP, nc.Eval.FN,
			nc.Eval.ATP(), nc.Eval.PPV(), nc.Eval.UniqueTP)
		for _, r := range nc.Strings() {
			fmt.Fprintf(out, "  %s\n", r)
		}
		if !*matches {
			continue
		}
		// Per-hostname classification, the view the paper's public data
		// supplement provides for every suffix.
		set, err := core.NewSet(nc.Suffix, groups[nc.Suffix], learner.Opts)
		if err != nil {
			return err
		}
		_, exts := set.EvaluateDetailed(nc.Regexes...)
		for _, e := range exts {
			extracted := e.ASN
			if extracted == "" {
				extracted = "-"
			}
			fmt.Fprintf(out, "  %-3s %-50s train=%s extracted=%s\n",
				e.Outcome, e.Item.Hostname, e.Item.ASN, extracted)
		}
	}
	return nil
}

// runDiff computes the HBD rollout delta that takes the old saved
// corpus to the new one. The delta is chained to the old corpus's
// fingerprint, so a node (or the hoihoc coordinator) applies it only
// against exactly that base, and applying reproduces the new corpus
// byte for byte. Both inputs may be JSON or HBC; classes are never
// filtered here — the delta describes the full corpus.
func runDiff(oldPath, newPath, outPath string) error {
	oldC, err := extract.LoadFile(oldPath)
	if err != nil {
		return fmt.Errorf("old corpus: %w", err)
	}
	newC, err := extract.LoadFile(newPath)
	if err != nil {
		return fmt.Errorf("new corpus: %w", err)
	}
	var delta bytes.Buffer
	if err := extract.Diff(oldC, newC, &delta); err != nil {
		return err
	}
	var full bytes.Buffer
	if err := newC.SaveBinary(&full); err != nil {
		return err
	}
	if err := atomicfile.WriteFile(outPath, func(w io.Writer) error {
		_, err := w.Write(delta.Bytes())
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"hoiho: wrote %d-byte delta %s → %s to %s (full corpus %d bytes, %.1f%%); roll out with `curl -X POST --data-binary @%s <router>/-/rollout`\n",
		delta.Len(), oldC.FingerprintString(), newC.FingerprintString(), outPath,
		full.Len(), 100*float64(delta.Len())/float64(full.Len()), outPath)
	return nil
}

// runApply loads a saved corpus and streams hostnames through it,
// emitting one "hostname<TAB>asn" line per extraction. hostsPath may be
// "-" for stdin. Lines may carry extra whitespace-separated columns (as
// in PTR dumps); only the first field is used. Cancelling ctx shuts the
// pipeline down cleanly: results already emitted are flushed, and the
// run reports the interruption.
func runApply(ctx context.Context, corpusPath, hostsPath string, out io.Writer, classes string) error {
	var opts []extract.Option
	switch classes {
	case "all":
	case "usable":
		opts = append(opts, extract.UsableOnly())
	case "good":
		opts = append(opts, extract.MinClass(core.Good))
	default:
		return fmt.Errorf("unknown -classes %q (want good, usable, or all)", classes)
	}
	corpus, err := extract.LoadFile(corpusPath, opts...)
	if err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if hostsPath != "-" {
		f, err := os.Open(hostsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	// Feed the scanner into the corpus's ordered streaming pipeline; the
	// output arrives in input order, so results line up with the file.
	// Every send selects on ctx.Done so a signal or timeout unwinds the
	// whole pipeline instead of deadlocking the feeder.
	in := make(chan string, 256)
	scanErr := make(chan error, 1)
	go func() {
		defer close(in)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if i := strings.IndexAny(line, " \t"); i >= 0 {
				line = line[:i]
			}
			select {
			case in <- line:
			case <-ctx.Done():
				scanErr <- ctx.Err()
				return
			}
		}
		scanErr <- sc.Err()
	}()

	w := bufio.NewWriter(out)
	for res := range corpus.ExtractStream(ctx, in) {
		if !res.OK {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\n", res.Hostname, res.ASN)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := <-scanErr; err != nil {
		return err
	}
	return ctx.Err()
}

// runNames learns AS-name conventions from "hostname name" lines.
func runNames(r io.Reader, out io.Writer, list *psl.List, minItems int) error {
	var items []asnames.Item
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("line %d: want hostname name", lineno)
		}
		items = append(items, asnames.Item{Hostname: fields[0], Name: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	l := &asnames.Learner{MinItems: minItems}
	ncs, err := l.LearnAll(list, items)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d training items, %d name conventions\n", len(items), len(ncs))
	for _, nc := range ncs {
		tag := "usable"
		if nc.Good {
			tag = "good"
		}
		fmt.Fprintf(out, "%s: %s  TP=%d FP=%d FN=%d ATP=%d PPV=%.3f unique=%d\n",
			nc.Suffix, tag, nc.Eval.TP, nc.Eval.FP, nc.Eval.FN,
			nc.Eval.ATP(), nc.Eval.PPV(), nc.Eval.UniqueTP)
		for _, r := range nc.Strings() {
			fmt.Fprintf(out, "  %s\n", r)
		}
	}
	return nil
}

// parsePlain reads "hostname asn [address]" lines.
func parsePlain(r io.Reader) ([]core.Item, error) {
	var items []core.Item
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want hostname asn [address]", lineno)
		}
		a, err := asn.Parse(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		it := core.Item{Hostname: fields[0], ASN: a}
		if len(fields) >= 3 {
			addr, err := netip.ParseAddr(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			it.Addr = addr
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return items, nil
}
