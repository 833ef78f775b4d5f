// Command witrack-record captures scenario cells to .wtrace files: each
// single-trajectory scenario × device cell is compiled, simulated once,
// and its bit-identical per-antenna frame stream written to disk with
// the scenario spec embedded as provenance. The traces replay through
// witrack-replay (or core.TraceSource) without paying synthesis cost.
//
// After writing each trace the command replays it in-process and scores
// it — validating the round trip immediately — and -json writes those
// replay metrics as the snapshot (CORPUS.json) that witrack-replay
// -diff gates against.
//
// Usage:
//
//	witrack-record [-out DIR] [-json CORPUS.json] [-corpus]
//	               [-only a,b] [-spec extra.json] [-list]
//
// By default the canonical scenario matrix's recordable cells are
// captured; -corpus switches to the compact corpus set used for the
// checked-in regression corpus. The corpus-refresh workflow is:
//
//	go run ./cmd/witrack-record -corpus \
//	    -out internal/scenario/testdata/corpus \
//	    -json internal/scenario/testdata/corpus/CORPUS.json
//
// Exit status: 0 success, 1 execution error, 2 bad usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"witrack/internal/scenario"
)

func main() {
	outDir := flag.String("out", "corpus", "directory to write .wtrace files into (created if missing)")
	jsonPath := flag.String("json", "", "write the replay-metrics snapshot (CORPUS.json) to this path")
	corpus := flag.Bool("corpus", false, "record the compact corpus set instead of the canonical matrix")
	only := flag.String("only", "", "comma-separated scenario names to record (default: all recordable)")
	specPath := flag.String("spec", "", "JSON file with extra scenario specs to append")
	list := flag.Bool("list", false, "list recordable scenario names and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "witrack-record: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	specs := scenario.Canonical()
	if *corpus {
		specs = scenario.Corpus()
	}
	if *specPath != "" {
		extra, err := scenario.LoadSpecs(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "witrack-record:", err)
			os.Exit(2)
		}
		specs = append(specs, extra...)
	}

	if *list {
		for _, sp := range specs {
			note := ""
			if err := sp.Recordable(); err != nil {
				note = "  (not recordable)"
			}
			fmt.Printf("%-14s %s%s\n", sp.Name, sp.Description, note)
		}
		return
	}

	explicit := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			explicit[strings.TrimSpace(name)] = true
		}
		var filtered []scenario.Spec
		for _, sp := range specs {
			if explicit[sp.Name] {
				filtered = append(filtered, sp)
				delete(explicit, sp.Name)
			}
		}
		if len(explicit) > 0 {
			var unknown []string
			for name := range explicit {
				unknown = append(unknown, name)
			}
			fmt.Fprintf(os.Stderr, "witrack-record: unknown scenario(s) in -only: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		specs = filtered
		// Explicitly requested scenarios must be recordable.
		for _, sp := range specs {
			if err := sp.Recordable(); err != nil {
				fmt.Fprintln(os.Stderr, "witrack-record:", err)
				os.Exit(2)
			}
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "witrack-record:", err)
		os.Exit(1)
	}

	var report scenario.ReplayReport
	var total int64
	for i := range specs {
		sp := &specs[i]
		if err := sp.Recordable(); err != nil {
			fmt.Printf("skip %-14s %v\n", sp.Name, err)
			continue
		}
		fleet := len(sp.Devices)
		if fleet == 0 {
			fleet = 1 // empty fleet means one default placement
		}
		for di := 0; di < fleet; di++ {
			name := fmt.Sprintf("%s-d%d.wtrace", sp.Name, di)
			path := filepath.Join(*outDir, name)
			res, size, raw, err := recordAndVerify(sp, di, path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "witrack-record:", err)
				os.Exit(1)
			}
			total += size
			res.Trace = name
			res.RawBytes = raw
			res.TraceBytes = size
			if size > 0 {
				res.CompressionRatio = float64(raw) / float64(size)
			}
			report.Traces = append(report.Traces, *res)
			fmt.Printf("wrote %-28s %6.1f KB  %5d frames  %6.1f KB raw  %4.1fx  (%s device %d)\n",
				name, float64(size)/1024, res.Frames, float64(raw)/1024, res.CompressionRatio, sp.Name, di)
		}
	}
	if len(report.Traces) == 0 {
		fmt.Fprintln(os.Stderr, "witrack-record: no recordable scenarios selected")
		os.Exit(2)
	}
	fmt.Printf("total %.1f KB across %d traces\n", float64(total)/1024, len(report.Traces))

	if *jsonPath != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "witrack-record:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// recordAndVerify captures one cell to path, then replays the written
// file and returns the replay's scored result — proving on the spot
// that what landed on disk reproduces the run — together with the
// on-disk (compressed) and pre-compression encoded sizes. RecordCell
// captures cells whose device models an ADC (Radio.ADCBits > 0) as
// quantized int16 sweep traces; all others record pre-transformed
// range bins.
func recordAndVerify(sp *scenario.Spec, deviceIndex int, path string) (*scenario.ReplayResult, int64, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, 0, err
	}
	_, raw, err := scenario.RecordCell(sp, deviceIndex, f)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return nil, 0, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, 0, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer rf.Close()
	res, err := scenario.ReplayTrace(context.Background(), rf)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("verifying %s: %w", path, err)
	}
	return res, st.Size(), raw, nil
}
