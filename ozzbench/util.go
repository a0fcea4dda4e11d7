package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"ozz/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seedSet derives n campaign seeds from the workload seed (splitmix64),
// so the same --seed always selects the same campaigns.
func seedSet(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		out[k] = int64(z >> 2)
	}
	return out
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set, so the next peakRSSMB reads the peak of what ran
// in between. If the kernel refuses, peakRSSMB keeps reading the peak
// since the process started.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("peak RSS not reset: %v", err)
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// scrape holds metric samples keyed by name plus label string, e.g.
// `ozz_sti_cache_lookups_total{outcome="hit"}`.
type scrape map[string]float64

// add reads a registry through its text exposition — the same view an
// operator's /metrics scrape gets — and sums its samples into s, so one
// scrape can merge several registries.
func (s scrape) add(reg *obs.Registry) error {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return err
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		return err
	}
	for _, smp := range samples {
		key := smp.Name
		if len(smp.Labels) > 0 {
			parts := make([]string, len(smp.Labels))
			for i, l := range smp.Labels {
				parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		s[key] += smp.Value
	}
	return nil
}

// histMeanUS returns the mean of one ozz_stage_duration_seconds child in
// microseconds.
func (s scrape) histMeanUS(name, label string) float64 {
	return 1e6 * ratio(s[name+"_sum{"+label+"}"], s[name+"_count{"+label+"}"])
}

// counts are a run's exact work counts. Two runs of the same code on the
// same inputs must produce identical counts; a timing row means nothing
// if the work under it changed.
type counts struct {
	Steps      uint64   `json:"steps"`
	STIs       uint64   `json:"stis"`
	MTIs       uint64   `json:"mtis"`
	Hints      uint64   `json:"hints"`
	Vacuous    uint64   `json:"vacuous"`
	Corpus     int      `json:"corpus"`
	Edges      int      `json:"edges"`
	MTIsToFind uint64   `json:"mtis_to_find"`
	Shards     int      `json:"shards"`
	Titles     []string `json:"titles"`
}

// guard is the determinism check. Each unit of work is recorded under a
// key naming its inputs; a key seen twice — in this run, or in an earlier
// run of the same executable recorded under the output directory — must
// carry identical counts.
type guard struct {
	path string
	seen map[string]counts
	errs []string
}

func newGuard(outDir, workload string, seed int64) (*guard, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating executable: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, fmt.Errorf("hashing executable: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("hashing executable: %w", err)
	}
	dir := filepath.Join(outDir, "counts", hex.EncodeToString(h.Sum(nil))[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &guard{
		path: filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed)),
		seen: make(map[string]counts),
	}, nil
}

// record checks one unit's counts against any earlier unit of the run
// with the same key.
func (g *guard) record(key string, c counts) {
	if c.Titles == nil {
		c.Titles = []string{}
	}
	sort.Strings(c.Titles)
	if prev, ok := g.seen[key]; ok {
		if !reflect.DeepEqual(prev, c) {
			g.errs = append(g.errs, fmt.Sprintf("%s: counts %+v, earlier %+v", key, c, prev))
		}
		return
	}
	g.seen[key] = c
}

// finish compares the run's counts with the record an earlier run of the
// same executable left, stores the union, and returns every mismatch.
func (g *guard) finish() []string {
	prior := make(map[string]counts)
	data, err := os.ReadFile(g.path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prior); err != nil {
			g.errs = append(g.errs, fmt.Sprintf("unreadable record %s: %v", g.path, err))
		}
	case !errors.Is(err, fs.ErrNotExist):
		g.errs = append(g.errs, fmt.Sprintf("reading %s: %v", g.path, err))
	}
	for key, c := range g.seen {
		if p, ok := prior[key]; ok && !reflect.DeepEqual(p, c) {
			g.errs = append(g.errs, fmt.Sprintf("%s: counts %+v, earlier run %+v", key, c, p))
		}
		prior[key] = c
	}
	if out, err := json.MarshalIndent(prior, "", " "); err == nil {
		if err := os.WriteFile(g.path, out, 0o644); err != nil {
			g.errs = append(g.errs, fmt.Sprintf("writing %s: %v", g.path, err))
		}
	}
	return g.errs
}
