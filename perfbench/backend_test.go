package main

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/wire"
)

// TestTracedClusterExposesSameExtensions pins that the traced pass
// offers the scheduler exactly the optional Backend extensions the
// untraced pass does.
func TestTracedClusterExposesSameExtensions(t *testing.T) {
	rc, err := wire.StaticCluster([]string{"127.0.0.1:1"}, wire.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var plain, traced sched.Backend = rc, &tracedCluster{rc, &recorder{}}
	for _, c := range []struct {
		name string
		has  func(sched.Backend) bool
	}{
		{"Liveness", func(b sched.Backend) bool { _, ok := b.(sched.Liveness); return ok }},
		{"Migrator", func(b sched.Backend) bool { _, ok := b.(sched.Migrator); return ok }},
		{"Freezer", func(b sched.Backend) bool { _, ok := b.(sched.Freezer); return ok }},
		{"Elastic", func(b sched.Backend) bool { _, ok := b.(sched.Elastic); return ok }},
		{"Grower", func(b sched.Backend) bool { _, ok := b.(sched.Grower); return ok }},
	} {
		if p, tr := c.has(plain), c.has(traced); p != tr {
			t.Errorf("%s: untraced %v, traced %v", c.name, p, tr)
		}
	}
}

func TestTracedClusterAttributesCalls(t *testing.T) {
	// Nothing listens on port 1, so every call fails fast; the span is
	// recorded all the same, against the job the call served.
	rc, err := wire.StaticCluster([]string{"127.0.0.1:1"}, wire.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rec := &recorder{}
	tc := &tracedCluster{rc, rec}
	ns := uint64(5)<<8 | 1 // job 5, first attempt
	tc.SetVar(0, "j1281:B", 1)
	tc.InjectJob(0, ns, "x", nil)
	tc.ReleaseJob(ns)
	tc.GetVar(0, "parked:3")
	want := []struct {
		name string
		job  uint64
	}{{spanSetVar, 5}, {spanInject, 5}, {spanRelease, 5}, {spanGetVar, 0}}
	got := rec.snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d spans, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Job != w.job || got[i].End.Before(got[i].Start) {
			t.Errorf("span %d = %+v, want %s of job %d", i, got[i], w.name, w.job)
		}
	}
}

func TestJobOfVar(t *testing.T) {
	for name, want := range map[string]uint64{
		"j1281:B": 5, "j1282:C:3": 5, "j1281:": 5, "parked:3": 0, "jx:B": 0, "j1281": 0,
	} {
		if got := jobOfVar(name); got != want {
			t.Errorf("jobOfVar(%q) = %d, want %d", name, got, want)
		}
	}
}
