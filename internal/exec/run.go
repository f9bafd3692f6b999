package exec

import (
	"io"

	"repro/internal/plan"
	"repro/internal/types"
)

// motionRecvIter pulls rows arriving from the sending slice of a motion.
type motionRecvIter struct {
	ctx  *Context
	recv Receiver
}

func (m *motionRecvIter) Next() (types.Row, error) {
	row, ok, err := m.recv.Recv(m.ctx.Ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, io.EOF
	}
	return row, nil
}

func (m *motionRecvIter) Close() {}

// Build constructs the iterator tree for a plan subtree *within one slice*.
// A Motion child is a slice boundary: Build returns a receiver iterator for
// it; the sending side is launched separately by the dispatcher. When
// ctx.NodeRows is set, every node's iterator is wrapped to record its actual
// output rows (recursion re-enters Build, so children are wrapped too).
func Build(ctx *Context, node plan.Node) Iterator {
	it := buildRow(ctx, node)
	if ctr := ctx.NodeRows.Counter(node); ctr != nil {
		it = &countingIter{child: it, ctr: ctr}
	}
	if st := ctx.opStat(node); st != nil {
		it = &opStatIter{child: it, st: st}
	}
	return it
}

func buildRow(ctx *Context, node plan.Node) Iterator {
	switch n := node.(type) {
	case *plan.OneRow:
		return &oneRowIter{}
	case *plan.Scan:
		if ctx.Store == nil {
			return errIterf("exec: scan of %s in a storage-less slice", n.Table.Name)
		}
		return newScanIter(ctx, n)
	case *plan.IndexScan:
		if ctx.Store == nil {
			return errIterf("exec: index scan of %s in a storage-less slice", n.Table.Name)
		}
		return &indexScanIter{ctx: ctx, node: n}
	case *plan.Filter:
		return &filterIter{child: Build(ctx, n.Child), cond: n.Cond, tick: cpuTick{ctx: ctx}}
	case *plan.Project:
		return &projectIter{child: Build(ctx, n.Child), exprs: n.Exprs, tick: cpuTick{ctx: ctx}}
	case *plan.HashJoin:
		return newHashJoinIter(ctx, n, Build(ctx, n.Left), Build(ctx, n.Right))
	case *plan.NestLoop:
		return newNestLoopIter(ctx, n, Build(ctx, n.Left), Build(ctx, n.Right))
	case *plan.Agg:
		return newAggIter(ctx, n, Build(ctx, n.Child))
	case *plan.Sort:
		return &sortIter{ctx: ctx, child: Build(ctx, n.Child), keys: n.Keys, mem: opMem{ctx: ctx, stat: ctx.opStat(n)}}
	case *plan.Limit:
		return &limitIter{child: Build(ctx, n.Child), count: n.Count, offset: n.Offset}
	case *plan.Motion:
		if ctx.Inline != nil {
			return Build(ctx.Inline, n.Child)
		}
		if ctx.Recv == nil {
			return errIterf("exec: no receiver wiring for slice %d", n.SliceID)
		}
		r := ctx.Recv(n.SliceID)
		if r == nil {
			return errIterf("exec: no receiver for slice %d at segment %d", n.SliceID, ctx.SegID)
		}
		return &motionRecvIter{ctx: ctx, recv: r}
	default:
		return errIterf("exec: unsupported plan node %T", node)
	}
}

// HashForRedistribute computes the destination segment for a row under a
// redistribute motion.
func HashForRedistribute(exprs []plan.Expr, row types.Row, nseg int) (int, error) {
	var h uint64 = 1469598103934665603
	for _, e := range exprs {
		v, err := e.Eval(row)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return int(h % uint64(nseg)), nil
}
