package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Mirror is one primary segment's standby: it receives the primary's WAL
// frames in LSN order (the shipper callback runs under the primary log's
// append lock), verifies and appends them to its own copy of the log, and
// applies them to a replica set of storage engines plus a replica
// transaction manager — the stream-ingest/log-replay loop. The applier is a
// single background goroutine, so replication is asynchronous by nature;
// synchronous mode only changes the primary's flush, which then waits on
// WaitApplied.
//
// On promotion the mirror's engines, clog and xid mapping become the new
// primary's state verbatim; the mirror's log (a byte-identical prefix of
// the dead primary's) becomes the new primary's log, so LSNs continue
// seamlessly and a future Recover can rebuild a new standby from it.
type Mirror struct {
	segID int
	cfg   *Config

	log     *wal.Log
	txns    *txn.Manager
	mapping *dtm.XidMapping

	tmu    sync.RWMutex
	tables map[catalog.TableID]*segTable

	// queue carries shipped frames from the primary's append path to the
	// applier goroutine.
	qmu    sync.Mutex
	qcond  *sync.Cond
	queue  [][]byte
	closed bool

	// applied is the highest LSN the applier has fully applied.
	applied atomic.Uint64
	amu     sync.Mutex
	acond   *sync.Cond

	// broken records the first apply error: a mirror that cannot apply the
	// stream is unusable for promotion (the equivalent of a corrupt
	// standby) and is reported instead of silently serving bad data.
	brokenErr atomic.Pointer[error]

	// faults is the cluster's fault registry (nil = disarmed); the
	// mirror_apply point is evaluated per frame with the primary's segment
	// id, so an armed sleep models replication lag.
	faults *fault.Registry

	wg sync.WaitGroup
}

func newMirror(segID int, cfg *Config) *Mirror {
	m := &Mirror{
		segID:   segID,
		cfg:     cfg,
		log:     wal.New(),
		txns:    txn.NewManager(),
		mapping: dtm.NewXidMapping(),
		tables:  make(map[catalog.TableID]*segTable),
	}
	m.qcond = sync.NewCond(&m.qmu)
	m.acond = sync.NewCond(&m.amu)
	return m
}

// CreateTable instantiates replica storage for a table (DDL is applied to
// mirrors directly by the coordinator; only DML flows through the log).
// Mirror engines use private decode caches and no WAL — the incoming frames
// ARE the log, appended verbatim by the applier.
func (m *Mirror) CreateTable(t *catalog.Table) {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if t.IsPartitioned() {
		for i := range t.Partitions {
			p := &t.Partitions[i]
			m.tables[p.ID] = &segTable{meta: t, leaf: p.ID, engine: mirrorEngine(p.Storage, t.Schema.Len())}
		}
		return
	}
	m.tables[t.ID] = &segTable{meta: t, leaf: t.ID, engine: mirrorEngine(t.Storage, t.Schema.Len())}
}

// DropTable discards replica storage.
func (m *Mirror) DropTable(t *catalog.Table) {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	for _, leaf := range leafIDs(t) {
		delete(m.tables, leaf)
	}
}

func mirrorEngine(kind catalog.Storage, ncols int) storage.Engine {
	switch kind {
	case catalog.AORow:
		return storage.NewAORow()
	case catalog.AOColumn:
		return storage.NewAOColumn(ncols, storage.CompressionRLEDelta)
	default:
		return storage.NewHeap()
	}
}

// Receive is the primary log's shipper callback: it runs under the
// primary's append lock (so frames arrive in LSN order) and must not
// block — it only enqueues.
func (m *Mirror) Receive(lsn wal.LSN, frame []byte) {
	m.qmu.Lock()
	if !m.closed {
		m.queue = append(m.queue, frame)
		m.qcond.Signal()
	}
	m.qmu.Unlock()
}

// start launches the applier goroutine. The replica's durable flush is
// batch-granular: one group-commit flush covers every commit-class record
// in the drained batch, mirroring the primary's group commit — a per-record
// flush would serialize the standby at one sync per commit and let an
// async mirror lag without bound.
func (m *Mirror) start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			m.qmu.Lock()
			for len(m.queue) == 0 && !m.closed {
				m.qcond.Wait()
			}
			if len(m.queue) == 0 && m.closed {
				m.qmu.Unlock()
				return
			}
			batch := m.queue
			m.queue = nil
			m.qmu.Unlock()
			needFlush := false
			var last wal.LSN
			for _, frame := range batch {
				if m.broken() != nil {
					break // drop the rest; drain only unblocks waiters
				}
				switch act, ferr := m.faults.Eval(fault.MirrorApply, m.segID); act {
				case fault.ActError:
					m.setBroken(ferr)
				case fault.ActSkip:
					// Dropped frame: the next frame's LSN gap breaks the
					// mirror via AppendFrame's sequence check, modeling a
					// standby that lost part of the stream.
					continue
				}
				if m.broken() != nil {
					break
				}
				rec, err := m.applyFrame(frame)
				if err != nil {
					m.setBroken(err)
					break
				}
				if rec.Type == wal.TypeCommit || rec.Type == wal.TypePrepare {
					needFlush = true
				}
				last = rec.LSN
			}
			if needFlush {
				m.flushReplica()
			}
			if last > 0 {
				m.applied.Store(uint64(last))
				m.amu.Lock()
				m.acond.Broadcast()
				m.amu.Unlock()
			}
		}
	}()
}

// drainAndStop applies everything queued, then stops the applier. Used by
// promotion: the queue holds exactly the records the dead primary appended
// before it was declared dead.
func (m *Mirror) drainAndStop() error {
	m.qmu.Lock()
	m.closed = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
	m.wg.Wait()
	// Wake any flush still waiting in sync mode.
	m.amu.Lock()
	m.acond.Broadcast()
	m.amu.Unlock()
	return m.broken()
}

func (m *Mirror) setBroken(err error) {
	wrapped := fmt.Errorf("cluster: mirror of segment %d broken: %w", m.segID, err)
	m.brokenErr.CompareAndSwap(nil, &wrapped)
	m.amu.Lock()
	m.acond.Broadcast()
	m.amu.Unlock()
}

// broken returns the first apply error, if any.
func (m *Mirror) broken() error {
	if p := m.brokenErr.Load(); p != nil {
		return *p
	}
	return nil
}

// AppliedLSN returns the highest applied LSN.
func (m *Mirror) AppliedLSN() wal.LSN { return wal.LSN(m.applied.Load()) }

// WaitApplied blocks until the mirror has applied (and durably logged) lsn,
// or the mirror stops/breaks — the synchronous-replication commit wait.
func (m *Mirror) WaitApplied(lsn wal.LSN) {
	if wal.LSN(m.applied.Load()) >= lsn {
		return
	}
	m.amu.Lock()
	defer m.amu.Unlock()
	for wal.LSN(m.applied.Load()) < lsn {
		if m.broken() != nil {
			return
		}
		m.qmu.Lock()
		stopped := m.closed && len(m.queue) == 0
		m.qmu.Unlock()
		if stopped {
			return
		}
		m.acond.Wait()
	}
}

// applyFrame verifies one frame, appends it to the mirror's log and applies
// it to the replica state. Durable-flush and applied-LSN publication are
// the applier loop's job (batch-granular).
func (m *Mirror) applyFrame(frame []byte) (wal.Record, error) {
	rec, err := m.log.AppendFrame(frame)
	if err != nil {
		return rec, err
	}
	switch rec.Type {
	case wal.TypeBegin:
		m.txns.BeginReplay(txn.XID(rec.Xid))
		m.mapping.Register(txn.XID(rec.Xid), dtm.DXID(rec.Dxid))
	case wal.TypePrepare:
		if err := m.txns.Prepare(txn.XID(rec.Xid)); err != nil {
			return rec, err
		}
	case wal.TypeCommit:
		if err := m.txns.Commit(txn.XID(rec.Xid)); err != nil {
			return rec, err
		}
	case wal.TypeAbort:
		if err := m.txns.Abort(txn.XID(rec.Xid)); err != nil {
			return rec, err
		}
	default:
		// Storage record. A record for a dropped table is skipped: DDL is
		// applied to mirrors directly, so the engine may already be gone
		// while its tail records are still in flight.
		m.tmu.RLock()
		st, ok := m.tables[catalog.TableID(rec.Leaf)]
		m.tmu.RUnlock()
		if !ok {
			break
		}
		if err := storage.ApplyRecord(st.engine, rec); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// flushReplica charges the standby's durable-write cost for a commit-class
// record (its own group-commit flush of the appended frames).
func (m *Mirror) flushReplica() {
	m.log.Flush(0)
}

// toSegment converts the caught-up mirror into the new primary Segment for
// the given generation. The caller (promotion) must already have drained
// and stopped the applier; crash recovery and in-doubt resolution happen in
// the cluster layer, which owns the coordinator state needed for them.
func (m *Mirror) toSegment(gen int, blockCache *storage.BlockCache, distInProgress func(dtm.DXID) bool, repMode *atomic.Int32) *Segment {
	ns := newSegment(m.segID, m.cfg)
	ns.gen = gen
	ns.txns = m.txns
	ns.mapping = m.mapping
	ns.tables = m.tables
	ns.log = m.log
	ns.distInProgress = distInProgress
	ns.repMode = repMode
	ns.blockCache = blockCache
	for leaf, st := range ns.tables {
		// The engines are now the authoritative copy: attach the segment
		// log so new mutations are logged, swap the column stores onto the
		// segment's shared decode cache, and drop every derived summary or
		// cached decoding built while the engine was a standby — a promoted
		// mirror must never serve stale decoded blocks or zone pages.
		if ao, ok := st.engine.(*storage.AOColumn); ok && blockCache != nil {
			ao.SetBlockCache(blockCache)
		}
		if dr, ok := st.engine.(storage.DerivedResettable); ok {
			dr.ResetDerived()
		}
		ns.attachWAL(st.engine, leaf)
	}
	// After the log swap, so the fault points follow the promoted log.
	ns.attachFaults(m.faults)
	return ns
}
