// Command setlearnlint runs setlearn's custom static-analysis suite: the
// determinism, pooling, and locking invariants the serving stack depends
// on, enforced mechanically instead of by review.
//
//	go run ./cmd/setlearnlint ./...
//	go run ./cmd/setlearnlint -run floateq,poolpair ./internal/deepsets
//
// Exit status: 0 clean, 1 findings, 2 operational errors (parse or type
// failures). Findings are suppressed line-by-line with
// //lint:allow <analyzer> -- <justification>; the justification is
// mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"setlearn/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("setlearnlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: setlearnlint [-list] [-run a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Analyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "setlearnlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := lint.Run(".", patterns, analyzers, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "setlearnlint: %v\n", err)
		return 2
	}
	switch {
	case res.Errors > 0:
		return 2
	case res.Diagnostics > 0:
		return 1
	}
	return 0
}
