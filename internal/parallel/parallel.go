// Package parallel is the intra-query parallel execution subsystem: it
// exploits the paper's central property — buckets are graded (qualifying /
// disqualifying / ambivalent) from their SMAs without touching their pages
// — to make the bucket the unit of parallelism, in the shared-nothing
// partitioned-execution tradition of Gamma and its descendants.
//
// A query runs in three stages:
//
//  1. Partition: every bucket is graded once with the selection SMAs, and
//     the relation is cut into contiguous bucket ranges balanced by the
//     pages of their surviving (non-disqualified) buckets — skew-resistant
//     because the split weighs pages, not buckets, and contiguous so each
//     worker reads mostly-sequential pages. Disqualifying buckets cost the
//     worker whose range holds them nothing but a grade check.
//  2. Execute: a context-aware worker pool runs one SMA_Scan or SMA_GAggr
//     pipeline per partition. The first worker error (or a parent context
//     cancel) cancels every sibling at its next bucket or page boundary.
//  3. Merge: the workers' partial aggregates combine into one result
//     (count/sum/min/max merge directly, avg merges as sum+count and is
//     divided last), per-worker ScanStats add up, and the merged groups
//     are emitted in sorted key order, so group-by output is deterministic
//     for every degree of parallelism.
//
// Full scans without usable SMAs parallelize too, by page range instead of
// graded bucket. Serial execution is the same pipeline over one partition:
// the whole relation, not split, not merged. Projection queries are not
// parallelized: they stream tuples in physical order, which a merge stage
// would only re-serialize.
package parallel

import (
	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
)

// Partition is one unit of intra-query parallelism: the contiguous bucket
// range [First, First+len(Grades)) of a relation, its buckets' grades (a
// subslice of the query's grade vector), and the heap pages of its
// surviving buckets (the balance weight; left 0 when the relation is not
// split).
type Partition struct {
	First  int
	Grades []core.Grade
	Pages  int64
}

// PreGrade grades every bucket of h once against p, in memory, using the
// grader's SMA vectors (delegating to core.Grader.GradeAll and padding to
// the heap's bucket count, see PadGrades). A nil predicate grades every
// bucket qualifying. The result is shared by the partitioner and the
// partition workers, so no bucket is graded twice.
func PreGrade(h *storage.HeapFile, g *core.Grader, p pred.Predicate) []core.Grade {
	nb := h.NumBuckets()
	if p == nil {
		grades := make([]core.Grade, nb)
		for b := range grades {
			grades[b] = core.Qualifies
		}
		return grades
	}
	return PadGrades(g.GradeAll(p), nb)
}

// PadGrades fits a grade vector to a relation of nb buckets: longer
// vectors are cut, and buckets past the end grade Ambivalent — missing
// information degrades to inspecting a bucket, never to a wrong skip. A
// vector of the right length is returned as is.
func PadGrades(grades []core.Grade, nb int) []core.Grade {
	if len(grades) >= nb {
		return grades[:nb]
	}
	out := make([]core.Grade, nb)
	copy(out, grades)
	for i := len(grades); i < nb; i++ {
		out[i] = core.Ambivalent
	}
	return out
}

// smaAnsweredQualWeight is the balance weight of a qualifying bucket when
// its aggregates come straight from the SMA vectors: a few in-memory SMA
// entries against pageWeight units per heap page a worker must fetch.
const (
	pageWeight            = 64
	smaAnsweredQualWeight = 1
)

// PartitionBuckets cuts the relation's buckets into at most dop
// contiguous ranges that tile [0, len(grades)), balanced by cost, each
// holding at least one surviving bucket. The weight of a surviving bucket
// is its page count — except when smaAnswered is set (the SMA_GAggr mode),
// where qualifying buckets are answered from the SMA vectors without
// touching a page and weigh next to nothing, so the split spreads the
// ambivalent buckets (the real page I/O) across workers. Disqualifying
// buckets weigh nothing and stay in whichever range holds them.
//
// At dop <= 1, or when no bucket survives, the result is the one range
// over the whole vector, built without looking at any bucket: serial
// execution pays nothing for partitioning.
func PartitionBuckets(h *storage.HeapFile, grades []core.Grade, dop int, smaAnswered bool) []Partition {
	whole := []Partition{{First: 0, Grades: grades}}
	if dop <= 1 {
		return whole
	}
	weigh := func(b int) (pages, weight int64) {
		first, last := h.BucketRange(b)
		pages = int64(last-first) + 1
		if smaAnswered && grades[b] == core.Qualifies {
			return pages, smaAnsweredQualWeight
		}
		return pages, pages * pageWeight
	}
	survivors := 0
	var totalWeight int64
	for b, g := range grades {
		if g != core.Disqualifies {
			survivors++
			_, w := weigh(b)
			totalWeight += w
		}
	}
	if survivors == 0 {
		return whole
	}
	dop = min(dop, survivors)
	parts := make([]Partition, 0, dop)
	first, kept := 0, 0 // the open range and its surviving buckets
	var pages, cum int64
	for b, g := range grades {
		if g == core.Disqualifies {
			continue
		}
		p, w := weigh(b)
		kept++
		pages += p
		cum += w
		// Cut after the bucket whose weight crosses the next of dop
		// equal-width targets, keeping the last range open for the
		// remainder so the ranges tile the whole vector.
		if len(parts) < dop-1 && cum*int64(dop) >= totalWeight*int64(len(parts)+1) {
			parts = append(parts, Partition{First: first, Grades: grades[first : b+1], Pages: pages})
			first, kept, pages = b+1, 0, 0
		}
	}
	if kept > 0 {
		parts = append(parts, Partition{First: first, Grades: grades[first:], Pages: pages})
	} else {
		// The last survivor closed a range: the trailing disqualified
		// buckets join it.
		last := &parts[len(parts)-1]
		last.Grades = grades[last.First:]
	}
	return parts
}

// PageRange is a half-open page interval [First, Last) assigned to one
// full-scan worker.
type PageRange struct {
	First, Last storage.PageID
}

// PartitionPages splits the file's pages into at most dop contiguous,
// near-equal ranges for parallel full scans.
func PartitionPages(numPages int64, dop int) []PageRange {
	if numPages <= 0 {
		return nil
	}
	if dop < 1 {
		dop = 1
	}
	if int64(dop) > numPages {
		dop = int(numPages)
	}
	out := make([]PageRange, 0, dop)
	for i := 0; i < dop; i++ {
		first := storage.PageID(numPages * int64(i) / int64(dop))
		last := storage.PageID(numPages * int64(i+1) / int64(dop))
		if first < last {
			out = append(out, PageRange{First: first, Last: last})
		}
	}
	return out
}
