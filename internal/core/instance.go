package core

import (
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/plan"
)

// instance is a session's executable form of one plan: the plan lowered
// from its cached template (plan.Instance), whose slots each execution's
// values are written into, the dispatch portal that runs it, and what the
// session derives from the plan once — the coordinator lock's table, the
// result's column names, the write's command tag. A session keeps the
// instances of the templates it runs again (see Session.planFor and
// instanceOf); the templates themselves are shared by all sessions.
type instance struct {
	*plan.Instance
	portal  *cluster.Portal
	lockTab *catalog.Table // nil: the plan takes no coordinator lock
	cols    []string       // a SELECT's column names
	res     cluster.QueryResources
	tag     string // the command tag of tagN rows written
	tagN    int
}

// maxInstances bounds a session's instance set: past it, lowering a new
// template evicts an arbitrary instance.
const maxInstances = 32

// newInstance lowers pl for this session.
func (s *Session) newInstance(pl *plan.Planned) (*instance, error) {
	cl := s.engine.cluster
	in := &instance{Instance: pl.Lower()}
	in.portal = cl.NewPortal(&in.Planned)
	if pl.LockTable != "" {
		t, err := cl.Catalog().Table(pl.LockTable)
		if err != nil {
			return nil, err
		}
		in.lockTab = t
	}
	if !isWrite(pl.Root) {
		in.cols = columnNames(pl.Root.Schema())
	}
	return in, nil
}

// instanceOf returns the session's instance of the cached template pl,
// lowering it on first use. Instances are dropped with their templates: all
// of them once the plan epoch moves past the one they were lowered under.
func (s *Session) instanceOf(pl *plan.Planned, epoch uint64) (*instance, error) {
	if epoch != s.instEpoch {
		clear(s.insts)
		s.instEpoch = epoch
	}
	if in := s.insts[pl]; in != nil {
		return in, nil
	}
	in, err := s.newInstance(pl)
	if err != nil {
		return nil, err
	}
	if s.insts == nil {
		s.insts = make(map[*plan.Planned]*instance)
	}
	if len(s.insts) >= maxInstances {
		for k := range s.insts {
			delete(s.insts, k)
			break
		}
	}
	s.insts[pl] = in
	return in, nil
}

// writeTag is the command tag of the instance's write having written n
// rows, built once per distinct n in a row.
func (in *instance) writeTag(n int) string {
	if in.tag == "" || in.tagN != n {
		in.tag, in.tagN = writeTag(in.Root, n), n
	}
	return in.tag
}

// isWrite reports whether root is an INSERT, UPDATE or DELETE.
func isWrite(root plan.Node) bool {
	switch root.(type) {
	case *plan.InsertPlan, *plan.UpdatePlan, *plan.DeletePlan:
		return true
	}
	return false
}
