package main

import (
	"os"
	"testing"
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and parentheses; utime 250 and
	// stime 50 ticks at 100 Hz are 3 s.
	got, err := parseStatCPU(fixture(t, "stat"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3000 {
		t.Errorf("cpu = %v ms, want 3000", got)
	}
	for _, bad := range []string{"", "1 (x S 1", "1 (x) S 1 2 3", "1 (x) S 1 1 1 1 1 1 1 1 1 1 zz 5"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseIOWchar(t *testing.T) {
	got, err := parseIOWchar(fixture(t, "io"))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1572864 {
		t.Errorf("wchar = %d, want 1572864", got)
	}
	for _, bad := range []string{"", "rchar: 1\n", "wchar: lots\n"} {
		if _, err := parseIOWchar([]byte(bad)); err == nil {
			t.Errorf("parseIOWchar(%q) accepted malformed input", bad)
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	if got := parseCPUModel(fixture(t, "cpuinfo")); got != "Intel(R) Xeon(R) Processor" {
		t.Errorf("model = %q", got)
	}
	if got := parseCPUModel([]byte("processor\t: 0\n")); got != "unknown" {
		t.Errorf("model of a cpuinfo without one = %q, want unknown", got)
	}
}

func TestReadUsageSelf(t *testing.T) {
	u, err := readUsage("self")
	if err != nil {
		t.Fatal(err)
	}
	if u.CPUms < 0 || u.WriteB < 0 {
		t.Errorf("usage of this process = %+v", u)
	}
}

func TestStealPct(t *testing.T) {
	before := []byte("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	after := []byte("cpu  160 0 60 900 10 0 5 65 0 0\ncpu0 1 2 3\n")
	// 200 ticks passed, 30 of them stolen.
	if got := stealPct(before, after); got != 15 {
		t.Errorf("steal = %v%%, want 15", got)
	}
	if got := stealPct(nil, after); got != -1 {
		t.Errorf("steal without a first reading = %v, want -1", got)
	}
}
