package main

import (
	"fmt"
	"math"
	"strings"

	"sma/internal/tpcd"
)

// The reference answers every query the workloads issue from the generated
// rows alone, without the engine: per shipdate day and per
// (L_RETURNFLAG, L_LINESTATUS) group it keeps the sums, counts and maxima
// the queries aggregate, so a shipdate-range answer is a short fold over
// days. Every workload predicate is a shipdate range, which is what makes
// this cheap enough to check every read.

// Groups are indexed flag*2+status over flags "ANR" and statuses "FO".
const (
	groupFlags    = "ANR"
	groupStatuses = "FO"
	numGroups     = len(groupFlags) * len(groupStatuses)
)

func groupIndex(flag, status byte) int {
	f := strings.IndexByte(groupFlags, flag)
	s := strings.IndexByte(groupStatuses, status)
	if f < 0 || s < 0 {
		panic(fmt.Sprintf("perfbench: unexpected group %c%c", flag, status))
	}
	return f*len(groupStatuses) + s
}

func groupName(g int) string {
	return string([]byte{groupFlags[g/len(groupStatuses)], groupStatuses[g%len(groupStatuses)]})
}

// groupAgg accumulates one group's rows of one day.
type groupAgg struct {
	count                                             int64
	qty, ext, disc, extDis, extDisTax, qtyDis, maxExt float64
}

func (a *groupAgg) add(li *tpcd.LineItem) {
	extDis := li.ExtendedPrice * (1 - li.Discount)
	if a.count == 0 || li.ExtendedPrice > a.maxExt {
		a.maxExt = li.ExtendedPrice
	}
	a.count++
	a.qty += li.Quantity
	a.ext += li.ExtendedPrice
	a.disc += li.Discount
	a.extDis += extDis
	a.extDisTax += extDis * (1 + li.Tax)
	a.qtyDis += li.Quantity * li.Discount
}

func (a *groupAgg) merge(b *groupAgg) {
	if b.count == 0 {
		return
	}
	if a.count == 0 || b.maxExt > a.maxExt {
		a.maxExt = b.maxExt
	}
	a.count += b.count
	a.qty += b.qty
	a.ext += b.ext
	a.disc += b.disc
	a.extDis += b.extDis
	a.extDisTax += b.extDisTax
	a.qtyDis += b.qtyDis
}

// dayRef holds one shipdate day: the grouped aggregates plus the sums the
// equality-on-shipdate projection is checked against.
type dayRef struct {
	groups [numGroups]groupAgg
	keySum int64
}

// reference covers shipdates StartDate .. EndDate.
type reference struct {
	days []dayRef
}

func newReference(items []tpcd.LineItem) *reference {
	r := &reference{days: make([]dayRef, tpcd.EndDate-tpcd.StartDate+1)}
	for i := range items {
		r.add(&items[i])
	}
	return r
}

func (r *reference) add(li *tpcd.LineItem) {
	d := &r.days[li.ShipDate-tpcd.StartDate]
	d.groups[groupIndex(li.ReturnFlag, li.LineStatus)].add(li)
	d.keySum += li.OrderKey
}

func (r *reference) clone() *reference {
	return &reference{days: append([]dayRef(nil), r.days...)}
}

// fold merges the groups of every day with lo <= shipdate <= hi.
func (r *reference) fold(lo, hi int32) [numGroups]groupAgg {
	var out [numGroups]groupAgg
	lo = max(lo, tpcd.StartDate)
	hi = min(hi, tpcd.EndDate)
	for d := lo; d <= hi; d++ {
		for g := range out {
			out[g].merge(&r.days[d-tpcd.StartDate].groups[g])
		}
	}
	return out
}

// answer is a query result in comparable form: per output row the key
// columns joined by '|' and the numeric columns as float64, rows in the
// order the query sorts them.
type answer struct {
	keys []string
	vals [][]float64
}

func (a *answer) addRow(key string, vals ...float64) {
	a.keys = append(a.keys, key)
	a.vals = append(a.vals, vals)
}

// q1 answers TPC-D Query 1 restricted to lo <= L_SHIPDATE <= hi:
// SUM_QTY, SUM_BASE_PRICE, SUM_DISC_PRICE, SUM_CHARGE, AVG_QTY, AVG_PRICE,
// AVG_DISC, COUNT_ORDER per group, ordered by flag and status.
func (r *reference) q1(lo, hi int32) answer {
	var a answer
	groups := r.fold(lo, hi)
	for g := range groups {
		x := &groups[g]
		if x.count == 0 {
			continue
		}
		n := float64(x.count)
		k := groupName(g)
		a.addRow(k[:1]+"|"+k[1:], x.qty, x.ext, x.extDis, x.extDisTax, x.qty/n, x.ext/n, x.disc/n, n)
	}
	return a
}

// uncovered answers SUM(L_QUANTITY*L_DISCOUNT), MAX(L_EXTENDEDPRICE),
// COUNT(*) over lo <= L_SHIPDATE <= hi: aggregates no SMA covers.
func (r *reference) uncovered(lo, hi int32) answer {
	var all groupAgg
	groups := r.fold(lo, hi)
	for g := range groups {
		all.merge(&groups[g])
	}
	var a answer
	a.addRow("", all.qtyDis, all.maxExt, float64(all.count))
	return a
}

// uncoveredGrouped answers MAX(L_EXTENDEDPRICE), SUM(L_QUANTITY*L_DISCOUNT)
// per (L_RETURNFLAG, L_LINESTATUS) over the whole relation.
func (r *reference) uncoveredGrouped() answer {
	var a answer
	groups := r.fold(tpcd.StartDate, tpcd.EndDate)
	for g := range groups {
		x := &groups[g]
		if x.count == 0 {
			continue
		}
		k := groupName(g)
		a.addRow(k[:1]+"|"+k[1:], x.maxExt, x.qtyDis)
	}
	return a
}

// point answers the equality-on-shipdate projection in summarized form:
// row count, sum of L_ORDERKEY, sum of L_QUANTITY, sum of L_EXTENDEDPRICE.
func (r *reference) point(day int32) answer {
	var all groupAgg
	d := &r.days[day-tpcd.StartDate]
	for g := range d.groups {
		all.merge(&d.groups[g])
	}
	var a answer
	a.addRow("", float64(all.count), float64(d.keySum), all.qty, all.ext)
	return a
}

// rows reports how many reference rows have shipdate day.
func (r *reference) rows(day int32) int64 {
	var n int64
	for g := range r.days[day-tpcd.StartDate].groups {
		n += r.days[day-tpcd.StartDate].groups[g].count
	}
	return n
}

// compare reports the first difference between got and want. Numbers
// match within a relative 1e-9 (summation order differs between the
// engine, its parallel merge and the reference) plus absTol, which covers
// the 4-decimal rendering of aggregates on the wire.
func compare(got, want answer, absTol float64) error {
	if len(got.keys) != len(want.keys) {
		return fmt.Errorf("%d rows, want %d", len(got.keys), len(want.keys))
	}
	for i := range want.keys {
		if got.keys[i] != want.keys[i] {
			return fmt.Errorf("row %d key %q, want %q", i, got.keys[i], want.keys[i])
		}
		if len(got.vals[i]) != len(want.vals[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got.vals[i]), len(want.vals[i]))
		}
		for j, w := range want.vals[i] {
			g := got.vals[i][j]
			if math.Abs(g-w) > absTol+1e-9*math.Abs(w) {
				return fmt.Errorf("row %d (%s) column %d = %v, want %v", i, want.keys[i], j, g, w)
			}
		}
	}
	return nil
}
