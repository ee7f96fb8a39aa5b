// Command navplint statically checks that the repository's NavP
// programs obey the model the plan transformations assume and that the
// serving layers keep their runtime invariants. It runs nine analyzers
// (see internal/analysis): hopcheck (node references must not survive a
// Hop, including hops buried in helpers), gobsafe (checkpointed agent
// state must round-trip through gob), simsafe (simulation-domain code
// must stay bit-reproducible), planfootprint (plan items must declare
// the footprint their bodies use), asmsafe (assembly-backed functions
// stay unexported and are called only through their declaring file's
// feature-detect dispatcher), syncorder (persist-before-
// acknowledge: no conn write of a durable mutation's effect before the
// node log synced), lockorder (acyclic static lock graph; no mutex
// held across a blocking call), jobrelease (every minted job namespace
// is released on every exit path), and metricsafe (instrument lookups
// hoisted out of hot loops; allocation-free nil-registry discard
// paths).
//
// Usage:
//
//	navplint [-json] [-only names] [-skip names] [packages]
//
// Packages default to ./... relative to the enclosing module. -only and
// -skip take comma-separated analyzer names; naming an unknown analyzer
// is a usage error. The exit status is 0 with no findings, 1 with
// findings, 2 on a load or usage error. Diagnostics print as
// file:line:col: analyzer: message, or as a JSON array with -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to skip")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: navplint [-json] [-only names] [-skip names] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fail(err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fail(err)
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	analyzers, err := selectAnalyzers(analysis.All(), *only, *skip)
	if err != nil {
		fail(err)
	}
	analysis.ApplyDomainFilters(analyzers, loader.ModulePath)

	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "navplint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}

// selectAnalyzers applies -only and -skip to the full analyzer list.
// Every name mentioned must exist: a typo silently running the wrong
// set is exactly the failure mode a lint gate cannot afford.
func selectAnalyzers(all []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	parse := func(flagName, list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (have %s)", flagName, name, analyzerNames(all))
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames(all []*analysis.Analyzer) string {
	names := make([]string, 0, len(all))
	for _, a := range all {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "navplint:", err)
	os.Exit(2)
}
