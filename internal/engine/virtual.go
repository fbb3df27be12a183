package engine

// This file wires the virtual system tables: the introspection catalog
// (sma_stat_statements, sma_stat_smas, sma_stat_tables, sma_stat_activity,
// sma_advisor) is served from in-memory snapshots of the stats collector,
// intercepted at plan time so every SELECT surface — wire protocol,
// client, smaql, and the embedded API — streams them like ordinary tables.

import (
	"sort"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/pred"
	"sma/internal/stats"
)

// statsC returns the database's stats collector, or nil when
// observability is disabled. stats.Collector methods are nil-safe, so the
// result can be used unconditionally.
func (db *DB) statsC() *stats.Collector {
	if o := db.opts.Obs; o != nil {
		return o.Stats
	}
	return nil
}

// smaCatalog snapshots the defined SMAs for the stats layer's
// definition-vs-observation joins. Caller holds db.mu (either mode).
func (db *DB) smaCatalog() []stats.CatalogSMA {
	var out []stats.CatalogSMA
	for _, t := range db.tables {
		for name, s := range t.smas {
			col := s.Def.ColumnOf()
			if s.Def.Agg == core.Count && len(s.Def.GroupBy) == 1 {
				col = strings.ToUpper(s.Def.GroupBy[0])
			}
			out = append(out, stats.CatalogSMA{
				Table:  t.Name,
				Name:   name,
				Column: col,
				Kind:   s.Def.Agg.String(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// virtualRelation materializes the named virtual table, or returns nil
// when the name is not one. With observability disabled the tables exist
// but are empty. Caller holds db.mu (either mode).
func (db *DB) virtualRelation(name string) *exec.MemRelation {
	if !stats.IsVirtual(name) {
		return nil
	}
	var catalog []stats.CatalogSMA
	switch strings.ToUpper(name) {
	case stats.TableSMAs, stats.TableAdvisor:
		catalog = db.smaCatalog()
	}
	rel, _ := stats.RelationFor(name, db.statsC(), catalog)
	return &exec.MemRelation{Name: rel.Name, Schema: rel.Schema, Tuples: rel.Tuples}
}

// planVirtual plans a query over a virtual table snapshot. Caller holds
// db.mu (either mode).
func (db *DB) planVirtual(q *parser.Query, rel *exec.MemRelation, tr *obs.Trace) (*planner.Plan, error) {
	if q.Where != nil {
		if err := q.Where.Bind(rel.Schema); err != nil {
			return nil, err
		}
	}
	plSp := tr.Root().Child("plan")
	plan, err := db.pl.PlanMem(q, rel)
	plSp.End()
	return plan, err
}

// recordQueryStats feeds a finished cursor into the stats collector; the
// per-SMA attribution runs under the read lock the cursor still holds.
func (c *Cursor) recordQueryStats(st *stats.Collector, err error, strat string, dur time.Duration) {
	plan := c.plan
	rec := stats.QueryRecord{
		Fingerprint: c.fp,
		Norm:        c.norm,
		Strategy:    strat,
		DOP:         plan.DOP,
		Dur:         dur,
		Rows:        c.rowsOut,
		Err:         err != nil,
	}
	if plan.Mem == nil {
		rec.Table = plan.Query.Table
		if plan.Query.Where != nil {
			for _, a := range pred.Atoms(plan.Query.Where) {
				// Which vector could disqualify buckets: col <= v prunes
				// when bucket min > v, col >= v when bucket max < v,
				// equality through either side. In col-vs-col atoms the
				// right column's direction mirrors (A < B compares A's
				// min against B's max).
				var lMin, lMax bool
				switch a.Op {
				case pred.Lt, pred.Le:
					lMin = true
				case pred.Gt, pred.Ge:
					lMax = true
				default:
					lMin, lMax = true, true
				}
				rec.FilterCols = mergeFilterCol(rec.FilterCols, a.Col, lMin, lMax)
				rec.FilterCols = mergeFilterCol(rec.FilterCols, a.RightCol, lMax, lMin)
			}
		}
	}
	var bucketPages int64 = 1
	if plan.Heap != nil {
		bucketPages = int64(plan.Heap.BucketPages)
	}
	if ss, ok := plan.ScanStats(); ok {
		rec.PagesRead = int64(ss.PagesRead)
		rec.Qualify = int64(ss.Qualifying)
		rec.Disqualify = int64(ss.Disqualifying)
		rec.Ambivalent = int64(ss.Ambivalent)
		rec.PagesPruned = rec.Disqualify * bucketPages
	}
	st.RecordQuery(rec)

	// Per-SMA effectiveness: attribute to each consulted SMA the buckets
	// it alone would disqualify. The counts come from the attribution
	// cache — the solo-grading sweep behind them costs O(runs) per SMA
	// plus the buckets of runs it cannot grade whole, so hot statements
	// must not repeat it.
	if plan.Query.Where == nil || len(plan.SelSMAs) == 0 {
		return
	}
	pruning := plan.Strategy != planner.StrategyFullScan
	for _, a := range c.db.smaAttribution(c.sql, plan) {
		saved := int64(0)
		if pruning {
			saved = a.disq * bucketPages
		}
		st.RecordSMA(rec.Table, a.name, a.col, a.kind, a.disq, saved)
	}
}

// mergeFilterCol folds one predicate-column observation into the list,
// OR-ing the vector needs when the column already appears; filter lists
// are tiny, so the linear scan beats allocating a set per query.
func mergeFilterCol(cols []stats.FilterCol, col string, needMin, needMax bool) []stats.FilterCol {
	if col == "" {
		return cols
	}
	for i := range cols {
		if cols[i].Col == col {
			cols[i].NeedMin = cols[i].NeedMin || needMin
			cols[i].NeedMax = cols[i].NeedMax || needMax
			return cols
		}
	}
	return append(cols, stats.FilterCol{Col: col, NeedMin: needMin, NeedMax: needMax})
}

// fpEntry is one cached statement fingerprint.
type fpEntry struct {
	fp   uint64
	norm string
}

// fpCacheMax bounds the fingerprint cache; past it the map is dropped
// and repopulated on demand.
const fpCacheMax = 4096

// fingerprint is parser.Fingerprint through the per-database cache.
func (db *DB) fingerprint(sql string) (uint64, string) {
	db.fpMu.Lock()
	e, ok := db.fpCache[sql]
	db.fpMu.Unlock()
	if ok {
		return e.fp, e.norm
	}
	fp, norm := parser.Fingerprint(sql)
	db.fpMu.Lock()
	if db.fpCache == nil || len(db.fpCache) >= fpCacheMax {
		db.fpCache = make(map[string]fpEntry)
	}
	db.fpCache[sql] = fpEntry{fp: fp, norm: norm}
	db.fpMu.Unlock()
	return fp, norm
}

// smaAttr is one consulted SMA's solo disqualification count for a
// particular predicate.
type smaAttr struct {
	name, col, kind string
	disq            int64
}

// attrCacheMax bounds the attribution cache; when distinct (table,
// predicate) pairs exceed it the whole map is dropped and rebuilt on
// demand — correctness never depends on an entry being present.
const attrCacheMax = 1024

// invalidateSMAAttribution drops the attribution cache. Called under
// db.mu's write lock by every write statement (beginStmt) and by SMA DDL,
// the two ways bucket bounds can change.
func (db *DB) invalidateSMAAttribution() {
	db.attrMu.Lock()
	db.attrCache = nil
	db.attrMu.Unlock()
}

// smaAttribution returns each consulted SMA's attribution for the plan's
// predicate, grading each SMA alone over every bucket on a cache miss.
// The cache key is the raw SQL text — it pins both the table and the
// predicate's literals, and unlike rendering the predicate it costs
// nothing to build. The caller's read lock on db.mu keeps writers out
// between the grading sweep and the store, so a computed entry cannot be
// stale by the time it lands in the cache.
func (db *DB) smaAttribution(key string, plan *planner.Plan) []smaAttr {
	db.attrMu.Lock()
	attrs, ok := db.attrCache[key]
	db.attrMu.Unlock()
	if ok {
		return attrs
	}
	attrs = make([]smaAttr, 0, len(plan.SelSMAs))
	for _, s := range plan.SelSMAs {
		disq := int64(core.NewGrader(s).Tally(plan.Query.Where).Disqualifying)
		col := s.Def.ColumnOf()
		if s.Def.Agg == core.Count && len(s.Def.GroupBy) == 1 {
			col = strings.ToUpper(s.Def.GroupBy[0])
		}
		attrs = append(attrs, smaAttr{name: s.Def.Name, col: col, kind: s.Def.Agg.String(), disq: disq})
	}
	db.attrMu.Lock()
	if db.attrCache == nil || len(db.attrCache) >= attrCacheMax {
		db.attrCache = make(map[string][]smaAttr)
	}
	db.attrCache[key] = attrs
	db.attrMu.Unlock()
	return attrs
}
