package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// manifest records what a run measured and under which conditions.
type manifest struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Trace          bool           `json:"trace"`
	Commit         string         `json:"commit"`
	GoVersion      string         `json:"go_version"`
	NProc          int            `json:"nproc"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	LoadBefore     float64        `json:"loadavg_before"`
	LoadAfter      float64        `json:"loadavg_after"`
	RoundValues    int            `json:"round_values"`
	Rounds         map[string]int `json:"rounds"`
	ValuesEnqueued int64          `json:"values_enqueued"`
	ValuesMoved    int64          `json:"values_moved"`
	Attempted      int64          `json:"attempted"`
	Errors         int64          `json:"call_errors"`
	Check          verdict        `json:"check"`
	CallSamples    int            `json:"call_samples"`
	Spans          int            `json:"spans,omitempty"`
	SpansDropped   int64          `json:"spans_dropped,omitempty"`
	SpansFile      string         `json:"spans_file,omitempty"`
}

func newManifest(o options, sp *spec, values int) *manifest {
	return &manifest{
		Workload:    sp.name,
		Seed:        o.seed,
		Seconds:     o.seconds,
		Trace:       o.trace,
		Commit:      commit(),
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		LoadBefore:  loadAvg(),
		RoundValues: values,
		Rounds:      make(map[string]int),
	}
}

// commit identifies the code under test: the VCS revision the binary was
// built from when the build saw a repository, else a digest of the Go
// sources and module files below the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
