package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAnalyzePoint-8         	    1000	       950.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkAnalyzePoint-8         	    1000	       710.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkCampaignThroughput     	      50	  47042648 ns/op	15534114 B/op	  372141 allocs/op
BenchmarkNoMem-8                	     100	      1234 ns/op
PASS
ok  	repro	1.234s
`

func TestParseBenchOutput(t *testing.T) {
	got, _, err := ParseBenchOutput(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	// Best-of-count: the faster AnalyzePoint repetition wins, with its
	// own memory columns.
	ap := got["AnalyzePoint"]
	if ap.NsPerOp != 710.5 || ap.AllocsPerOp != 0 || ap.BytesPerOp != 0 {
		t.Errorf("AnalyzePoint = %+v, want best-of-count {710.5 0 0}", ap)
	}
	if got["CampaignThroughput"].AllocsPerOp != 372141 {
		t.Errorf("CampaignThroughput = %+v", got["CampaignThroughput"])
	}
	if got["NoMem"].NsPerOp != 1234 {
		t.Errorf("NoMem = %+v", got["NoMem"])
	}
}

func TestWriteSpread(t *testing.T) {
	_, runs, err := ParseBenchOutput(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	WriteSpread(&buf, runs)
	// Two AnalyzePoint repetitions: the median is their mean.
	if want := "min        710.5  median        830.2  max        950.0  (n=2)"; !strings.Contains(buf.String(), want) {
		t.Errorf("spread lacks %q:\n%s", want, buf.String())
	}
	if !strings.Contains(buf.String(), "NoMem") {
		t.Errorf("spread lacks NoMem:\n%s", buf.String())
	}
}

func TestCompare(t *testing.T) {
	base := Entry{Benchmarks: map[string]Measurement{
		"A": {NsPerOp: 100, AllocsPerOp: 0},
		"B": {NsPerOp: 1000, AllocsPerOp: 5},
		"C": {NsPerOp: 50, AllocsPerOp: 200},
		"E": {NsPerOp: 50, AllocsPerOp: 200},
	}}
	cur := Entry{Benchmarks: map[string]Measurement{
		"A": {NsPerOp: 115, AllocsPerOp: 1},  // +15% ns, +1 alloc — inside both gates
		"B": {NsPerOp: 1300, AllocsPerOp: 5}, // +30% — ns regression
		"C": {NsPerOp: 40, AllocsPerOp: 204}, // faster but allocs grew past 1%+1
		"D": {NsPerOp: 1, AllocsPerOp: 0},    // new benchmark — ignored
		"E": {NsPerOp: 50, AllocsPerOp: 203}, // +3 allocs = 1%+1 of 200 — tolerated
	}}
	regs := Compare(base, cur, 20)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	joined := strings.Join(regs, "\n")
	if !strings.Contains(joined, "B: ns/op") || !strings.Contains(joined, "C: allocs/op") {
		t.Errorf("unexpected regression set: %v", regs)
	}
}

func TestCheckInversion(t *testing.T) {
	mk := func(cachedNs float64, cachedAllocs int64, uncachedNs float64, uncachedAllocs int64) Entry {
		return Entry{Benchmarks: map[string]Measurement{
			"EngineCachedSweep":   {NsPerOp: cachedNs, AllocsPerOp: cachedAllocs},
			"EngineUncachedSweep": {NsPerOp: uncachedNs, AllocsPerOp: uncachedAllocs},
		}}
	}
	if got := CheckInversion(mk(25000, 96, 26000, 96)); len(got) != 0 {
		t.Errorf("cached faster, equal allocs: want pass, got %v", got)
	}
	// ns/op within the noise slack is tolerated; allocs are exact.
	if got := CheckInversion(mk(26500, 96, 26000, 96)); len(got) != 0 {
		t.Errorf("cached +2%% ns/op: want pass (inside slack), got %v", got)
	}
	if got := CheckInversion(mk(47000, 96, 23000, 96)); len(got) != 1 || !strings.Contains(got[0], "ns/op") {
		t.Errorf("2x ns/op inversion: want 1 ns/op violation, got %v", got)
	}
	if got := CheckInversion(mk(23000, 258, 23000, 96)); len(got) != 1 || !strings.Contains(got[0], "allocs/op") {
		t.Errorf("alloc inversion: want 1 allocs/op violation, got %v", got)
	}
	if got := CheckInversion(mk(47000, 258, 23000, 96)); len(got) != 2 {
		t.Errorf("full inversion: want both violations, got %v", got)
	}
	// A partial -bench run (either sweep absent) can't judge the gate.
	partial := Entry{Benchmarks: map[string]Measurement{
		"EngineCachedSweep": {NsPerOp: 1e9, AllocsPerOp: 1e6},
	}}
	if got := CheckInversion(partial); len(got) != 0 {
		t.Errorf("partial entry: want no judgement, got %v", got)
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	traj := Trajectory{Entries: []Entry{{
		Label: "seed", Date: "2026-07-28", GoVersion: "go1.24.0", Count: 3,
		Benchmarks: map[string]Measurement{"A": {NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3}},
	}}}
	if err := WriteTrajectory(path, traj); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Benchmarks["A"] != traj.Entries[0].Benchmarks["A"] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCheckServingBudget(t *testing.T) {
	entry := func(allocs int64) Entry {
		return Entry{Benchmarks: map[string]Measurement{
			"CampaignThroughput": {NsPerOp: 1e7, AllocsPerOp: allocs},
		}}
	}
	if v := CheckServingBudget(entry(90000), 90000); len(v) != 0 {
		t.Errorf("at-budget entry flagged: %v", v)
	}
	if v := CheckServingBudget(entry(90001), 90000); len(v) != 1 {
		t.Errorf("over-budget entry not flagged: %v", v)
	}
	// 0 disables the gate entirely.
	if v := CheckServingBudget(entry(1<<40), 0); len(v) != 0 {
		t.Errorf("disabled gate still flagged: %v", v)
	}
	// A partial -bench run without the benchmark can't judge.
	if v := CheckServingBudget(Entry{Benchmarks: map[string]Measurement{}}, 90000); len(v) != 0 {
		t.Errorf("absent benchmark flagged: %v", v)
	}
}

func TestCheckDurabilityBudget(t *testing.T) {
	entry := func(ns float64) Entry {
		return Entry{Benchmarks: map[string]Measurement{
			"SessionEditDurable": {NsPerOp: ns, AllocsPerOp: 100},
		}}
	}
	if v := CheckDurabilityBudget(entry(25e6), 25e6); len(v) != 0 {
		t.Errorf("at-budget entry flagged: %v", v)
	}
	if v := CheckDurabilityBudget(entry(25e6+1), 25e6); len(v) != 1 {
		t.Errorf("over-budget entry not flagged: %v", v)
	}
	// 0 disables the gate entirely.
	if v := CheckDurabilityBudget(entry(1e12), 0); len(v) != 0 {
		t.Errorf("disabled gate still flagged: %v", v)
	}
	// A partial -bench run without the benchmark can't judge.
	if v := CheckDurabilityBudget(Entry{Benchmarks: map[string]Measurement{}}, 25e6); len(v) != 0 {
		t.Errorf("absent benchmark flagged: %v", v)
	}
}

func TestCheckRepairBudget(t *testing.T) {
	entry := func(ns float64) Entry {
		return Entry{Benchmarks: map[string]Measurement{
			"SessionRepair": {NsPerOp: ns, AllocsPerOp: 100},
		}}
	}
	if v := CheckRepairBudget(entry(10e6), 10e6); len(v) != 0 {
		t.Errorf("at-budget entry flagged: %v", v)
	}
	if v := CheckRepairBudget(entry(10e6+1), 10e6); len(v) != 1 {
		t.Errorf("over-budget entry not flagged: %v", v)
	}
	// 0 disables the gate entirely.
	if v := CheckRepairBudget(entry(1e12), 0); len(v) != 0 {
		t.Errorf("disabled gate still flagged: %v", v)
	}
	// A partial -bench run without the benchmark can't judge.
	if v := CheckRepairBudget(Entry{Benchmarks: map[string]Measurement{}}, 10e6); len(v) != 0 {
		t.Errorf("absent benchmark flagged: %v", v)
	}
}
