package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// fingerprint names the machine and the code a result was recorded on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
}

func machine() fingerprint {
	return fingerprint{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git revision stamped into the binary, or, when it was
// built outside a git checkout, "src-" plus a digest of the module's Go
// sources and go.mod files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := fnv.New64a()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%016x", h.Sum64())
}

// hostTicks reads the aggregate CPU line of /proc/stat: ticks stolen by
// the hypervisor and ticks in total (zeros where it is unavailable).
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// record is one line of results.jsonl. StealPct is the share of CPU time
// the hypervisor took from this machine during the run: on a shared host
// it explains most run-to-run drift in the wall-clock metrics.
type record struct {
	Time     string      `json:"time"`
	Machine  fingerprint `json:"machine"`
	StealPct float64     `json:"host_steal_pct"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Result   result      `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compare prints, per workload, trace mode and metric, the median of each
// result set and the relative change, after a loud warning when the two
// sets were recorded on different machines.
func compare(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	machines := map[fingerprint]bool{}
	for _, recs := range [][]record{olds, news} {
		for _, r := range recs {
			m := r.Machine
			m.Commit = ""
			machines[m] = true
		}
	}
	if len(machines) > 1 {
		fmt.Fprintln(w, strings.Repeat("!", 72))
		fmt.Fprintln(w, "!! WARNING: these results come from DIFFERENT MACHINES; the deltas below")
		fmt.Fprintln(w, "!! mix hardware with code and support no performance conclusion:")
		for m := range machines {
			fmt.Fprintln(w, "!!  ", m)
		}
		fmt.Fprintln(w, strings.Repeat("!", 72))
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	collect := func(recs []record) (map[key][]float64, map[key]string) {
		vals, units := map[key][]float64{}, map[key]string{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		return vals, units
	}
	ov, units := collect(olds)
	nv, _ := collect(news)
	var keys []key
	for k := range ov {
		if _, ok := nv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.workload != kb.workload {
			return ka.workload < kb.workload
		}
		if ka.trace != kb.trace {
			return !ka.trace
		}
		return ka.metric < kb.metric
	})
	fmt.Fprintf(w, "%-14s %-5s %-36s %12s %12s %8s %s\n", "workload", "trace", "metric", "old p50", "new p50", "change", "n")
	for _, k := range keys {
		o, n := median(ov[k]), median(nv[k])
		change := "n/a"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
		}
		fmt.Fprintf(w, "%-14s %-5v %-36s %12.4f %12.4f %8s %d/%d %s\n",
			k.workload, k.trace, k.metric, o, n, change, len(ov[k]), len(nv[k]), units[k])
	}
	return nil
}
