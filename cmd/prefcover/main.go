// Command prefcover is the end-to-end inventory-reduction pipeline of the
// paper's Figure 2: it generates or ingests clickstream data, adapts it
// into a preference graph, solves the Preference Cover problem, and
// reports the retained inventory.
//
// Subcommands:
//
//	gen       generate a synthetic clickstream (presets PE/PF/PM/YC)
//	import    convert a YooChoose (RecSys 2015) dataset to a clickstream
//	stats     summarize a clickstream
//	adapt     build a preference graph from a clickstream
//	gstats    summarize a preference graph
//	solve     select the retained inventory from a graph (budget or threshold)
//	eval      score an explicit retained set against a graph
//	simulate  Monte Carlo-validate a retained set against the graph
//	remote    talk to a prefcoverd: push graphs, solve by reference, run async jobs
//	version   print the build identity (module version, VCS revision, Go)
//
// Every subcommand reads stdin and writes stdout unless -in/-out are
// given, so stages compose with pipes:
//
//	prefcover gen -preset YC -scale 0.01 | prefcover adapt -variant i |
//	    prefcover solve -variant i -k 500
package main

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"prefcover/internal/version"
)

// command describes one subcommand. Every subcommand receives the
// process context, canceled on SIGINT/SIGTERM so long adapts and solves
// stop promptly instead of needing a kill -9.
type command struct {
	name, summary string
	run           func(ctx context.Context, args []string) error
}

var commands = []command{
	{"gen", "generate a synthetic clickstream", runGen},
	{"import", "convert a YooChoose (RecSys 2015) dataset to a clickstream", runImport},
	{"stats", "summarize a clickstream", runStats},
	{"adapt", "build a preference graph from a clickstream", runAdapt},
	{"gstats", "summarize a preference graph", runGStats},
	{"solve", "select the retained inventory from a graph", runSolve},
	{"eval", "score an explicit retained set", runEval},
	{"simulate", "Monte Carlo-validate a retained set against the graph", runSimulate},
	{"remote", "talk to a prefcoverd: push graphs, solve by reference, run async jobs", runRemote},
	{"version", "print the build identity (module version, VCS revision, Go)", runVersion},
}

func runVersion(ctx context.Context, args []string) error {
	fmt.Println(version.Get())
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	name := os.Args[1]
	if name == "-version" || name == "--version" {
		name = "version"
	}
	for _, c := range commands {
		if c.name == name {
			if err := c.run(ctx, os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "prefcover %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "prefcover: unknown command %q\n\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: prefcover <command> [flags]")
	fmt.Fprintln(w, "\ncommands:")
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	for _, c := range commands {
		fmt.Fprintf(tw, "  %s\t%s\n", c.name, c.summary)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nrun 'prefcover <command> -h' for flags")
}

// maybeGzip transparently decompresses inputs whose path ends in ".gz"
// (the YooChoose distribution ships gzipped).
func maybeGzip(r io.Reader, path string) (io.Reader, error) {
	if !strings.HasSuffix(path, ".gz") {
		return r, nil
	}
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("opening gzip %s: %w", path, err)
	}
	return gz, nil
}

// openIn returns the input stream ("-"/empty means stdin).
func openIn(path string) (*os.File, func(), error) {
	if path == "" || path == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// createOut returns the output stream ("-"/empty means stdout).
func createOut(path string) (*os.File, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
