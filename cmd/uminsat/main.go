// Command uminsat decides the UMINSAT problem of Proposition 5.4:
// does a CNF (read in DIMACS format) have a unique minimal model?
//
// Usage:
//
//	uminsat [-models] [-par n] file.cnf     (or - for stdin)
//
// Exit status: 0 if the minimal model is unique, 1 if not (or the
// formula is unsatisfiable), 2 on usage/parse errors — so the tool
// composes in shell pipelines. With -par the minimal models listed by
// -models are enumerated by the worker-pool engine (n workers, 0 =
// one per CPU); the model set is identical, the order is not.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"disjunct/internal/logic"
	"disjunct/internal/models"
	"disjunct/internal/oracle"
	"disjunct/internal/reduction"
)

func main() {
	showModels := flag.Bool("models", false, "also enumerate the minimal models (up to 16)")
	parWorkers := flag.Int("par", -1, "enumerate -models with this many workers (0 = NumCPU, -1 = serial)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: uminsat [-models] [-par n] file.cnf")
		os.Exit(2)
	}
	var r io.Reader
	if flag.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "uminsat:", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	cnf, voc, err := logic.ParseDIMACS(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uminsat:", err)
		os.Exit(2)
	}
	d := reduction.CNFDB(cnf, voc)
	o := oracle.NewNP()
	eng := models.NewEngine(d, o)
	unique, m := eng.UniqueMinimalModel()
	if unique {
		fmt.Printf("UNIQUE minimal model: %s   [oracle: %s]\n", m.String(d.Voc), o.Counters())
	} else if ok, _ := eng.HasModel(); !ok {
		fmt.Printf("UNSATISFIABLE (no models at all)   [oracle: %s]\n", o.Counters())
	} else {
		fmt.Printf("NOT unique   [oracle: %s]\n", o.Counters())
	}
	if *showModels {
		print := func(mm logic.Interp) bool {
			fmt.Println("  minimal model:", mm.String(d.Voc))
			return true
		}
		var it models.ModelIterator
		if *parWorkers >= 0 {
			it = eng.IterateMinimalModelsPar(16, models.ParOptions{Workers: *parWorkers})
		} else {
			it = eng.IterateMinimalModels(16)
		}
		models.Drain(it, print)
	}
	if !unique {
		os.Exit(1)
	}
}
