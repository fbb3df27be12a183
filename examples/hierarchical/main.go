// Hierarchical SMAs (§4): every SMA-file keeps a second level, a summary
// per run of core.RunLen buckets, and grading decides whole runs from it.
// This example shows how many level-1 entries a selective predicate never
// has to read, on sorted and on diagonally clustered LINEITEM.
//
// Unlike the other examples, this one deliberately drives the internal
// core/storage layers directly: the run summaries are grading machinery
// below the public sma package's planner surface, which uses them on every
// query without exposing them.
//
//	go run ./examples/hierarchical
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sma/internal/core"
	"sma/internal/experiments"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

func main() {
	atom := pred.NewAtom("L_SHIPDATE", pred.Le, float64(tuple.MustParseDate("1993-06-01")))
	fmt.Printf("predicate: %s, runs of %d buckets\n\n", atom, core.RunLen)
	fmt.Printf("%9s %10s %12s %14s %10s %8s\n", "order", "L1 entries", "L2 entries", "runs decided", "L1 read", "saved")
	for _, order := range []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal} {
		if err := show(order, atom); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nif every bucket of a run grades alike, the run summaries prove it and")
	fmt.Println("the run's level-1 SMA-file entries are never read — the paper's §4 saving.")
}

// show loads LINEITEM in the given order, builds the shipdate min/max
// SMAs and grades atom through their run summaries.
func show(order tpcd.Order, atom *pred.Atom) error {
	dir, err := os.MkdirTemp("", "sma-hier-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	dm, err := storage.OpenDiskManager(filepath.Join(dir, "lineitem.tbl"))
	if err != nil {
		return err
	}
	defer dm.Close()
	pool := storage.NewBufferPool(dm, 2048)
	h, err := storage.NewHeapFile(pool, tpcd.LineItemSchema(), 1)
	if err != nil {
		return err
	}
	if _, err := tpcd.LoadLineItem(h, tpcd.Config{ScaleFactor: 0.01, Seed: 11, Order: order}); err != nil {
		return err
	}
	defs := experiments.Q1SMADefs()
	mn, err := core.Build(h, defs[2]) // min(L_SHIPDATE)
	if err != nil {
		return err
	}
	mx, err := core.Build(h, defs[1]) // max(L_SHIPDATE)
	if err != nil {
		return err
	}
	grades, st := core.NewGrader(mn, mx).GradeRuns(atom)
	saved := 100 * (1 - float64(st.BucketsRead)/float64(len(grades)))
	fmt.Printf("%9s %10d %12d %14d %10d %7.1f%%\n",
		order, len(grades), st.Runs, st.RunsDecided, st.BucketsRead, saved)
	return nil
}
