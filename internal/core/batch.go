package core

import (
	"context"
	"fmt"
	"sync"

	"cosmodel/internal/numeric"
)

// BatchKind selects which system-level distribution a batched evaluation
// reports. Kinds evaluated together share one traversal of the device
// mixture: the per-node device factors (wa, sbe) are computed once and
// every kind's composition is accumulated from them, so asking for three
// kinds costs barely more than one.
type BatchKind int

const (
	// BatchFrontend is the frontend-observed response Sq ∗ Wa ∗ Sbe — what
	// CDFContext evaluates.
	BatchFrontend BatchKind = iota
	// BatchBackend is the backend-tier response Sbe — what
	// BackendCDFContext evaluates.
	BatchBackend
	// BatchNoWTA is the response with the accept-waiting factor dropped,
	// Sq ∗ Sbe — the paper's "noWTA" ablation, exact against a model built
	// with Options.WTA == WTANone.
	BatchNoWTA
	// BatchWrite is the frontend-observed single-replica PUT response
	// Sq ∗ Wa ∗ Swr — what WriteCDFContext with a {N:1, W:1} spec
	// evaluates. Requires write traffic in the mixture.
	BatchWrite
	// BatchWriteBackend is the backend-tier PUT replica response Swr.
	BatchWriteBackend
)

// mode maps the public kind onto the engine's internal evaluation mode.
func (k BatchKind) mode() (evalMode, error) {
	switch k {
	case BatchFrontend:
		return modeFull, nil
	case BatchBackend:
		return modeBackend, nil
	case BatchNoWTA:
		return modeNoWTA, nil
	case BatchWrite:
		return modeWriteFull, nil
	case BatchWriteBackend:
		return modeWriteBackend, nil
	}
	return 0, fmt.Errorf("%w: unknown batch kind %d", ErrBadParams, k)
}

// batchArena is the reusable scratch of one batched mixture evaluation:
// the concatenated per-threshold quadrature nodes and weights, the shared
// frontend factor per node, the node offsets per threshold and the raw
// per-(group, mode, threshold) sums. Pooling it drives the steady-state
// allocation count of a batched evaluation to the output slices alone.
type batchArena struct {
	nodes, ws, fe []complex128
	offs          []int
	sums          []float64
}

var batchArenaPool = sync.Pool{New: func() any { return new(batchArena) }}

// floats returns a zeroed float slice of length n backed by buf's capacity
// when possible.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// mixtureCDFBatch evaluates the rate-weighted mixture CDF for every mode in
// modes at every threshold in ts, writing out[m][j] for (modes[m], ts[j]).
// With a node-exposing inverter the whole request is one traversal of the
// mixture: nodes for all thresholds are appended once, the frontend factor
// is computed once per node, and each group's per-node device factors are
// evaluated once and accumulated into every (mode, threshold) cell. The
// accumulation order per cell is identical to the scalar evaluator's, with
// the per-node 1/s factor folded into the weights, so batch and scalar
// agree to within a few ulp of floating-point reassociation; validation and
// the fallback chain run per (group, mode, threshold) exactly as in the
// scalar path.
func (s *SystemModel) mixtureCDFBatch(ctx context.Context, modes []evalMode, ts []float64, out [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ni, ok := s.opts.inverter().(numeric.NodeInverter)
	if !ok {
		// Opaque custom inverter: no quadrature to share — evaluate
		// scalar, same guarded path, same results.
		for m, mode := range modes {
			for j, t := range ts {
				v, err := s.mixtureCDF(ctx, t, mode)
				if err != nil {
					return err
				}
				out[m][j] = v
			}
		}
		return nil
	}
	a := batchArenaPool.Get().(*batchArena)
	defer func() {
		batchArenaPool.Put(a)
	}()
	nodes, ws := a.nodes[:0], a.ws[:0]
	offs := a.offs[:0]
	for _, t := range ts {
		offs = append(offs, len(nodes))
		if t > 0 {
			nodes, ws = ni.AppendNodes(nodes, ws, t)
		}
	}
	offs = append(offs, len(nodes))
	// Fold the per-node 1/s quadrature factor into the weights once: the
	// scalar evaluator divides every node value by its abscissa, but that
	// division is the same for every group and mode, so hoisting it out of
	// the accumulation loop trades nGroups*nModes complex divisions per
	// node for one. The reassociation perturbs each term by at most a few
	// ulp against the scalar path (pinned at 1e-12 by the equivalence
	// tests).
	for k := range nodes {
		ws[k] /= nodes[k]
	}
	needFE, needRead, needWrite := false, false, false
	for _, mode := range modes {
		if shape := mode.shape(); shape == modeFull || shape == modeNoWTA {
			needFE = true
		}
		if mode.write() {
			needWrite = true
		} else {
			needRead = true
		}
	}
	if needWrite && s.totalWriteRate <= 0 {
		return fmt.Errorf("%w: no write traffic in the device mixture", ErrBadParams)
	}
	fe := a.fe[:0]
	if needFE {
		fe = s.frontend.sojournAt(fe, 0, nodes, false)
	}
	nt, nm := len(ts), len(modes)
	stride := nm * nt
	sums := floats(a.sums, len(s.groups)*stride)
	a.nodes, a.ws, a.fe, a.offs, a.sums = nodes, ws, fe, offs, sums

	// One pass over the mixture: each group walks all thresholds' nodes,
	// evaluating the device factors once per node and folding them into
	// every requested mode. Groups write disjoint sum ranges, so the
	// fan-out is race-free and the reduction below is deterministic.
	run := func(i int) error {
		gs := sums[i*stride : (i+1)*stride]
		dev := s.groups[i].dev
		// A read-only device contributes nothing to write modes: its
		// write factors are never evaluated and its write cells stay 0
		// (the reduction skips them by zero weight).
		devWrite := needWrite && s.groups[i].writeWeight > 0
		if !needRead && !devWrite {
			return nil
		}
		for j := range ts {
			for k := offs[j]; k < offs[j+1]; k++ {
				l := dev.lv.leaves(nodes[k])
				wa, sbe, swr := dev.node(nodes[k], &l, devWrite)
				wr, wi := real(ws[k]), imag(ws[k])
				for m, mode := range modes {
					var v complex128
					if mode.write() {
						if !devWrite {
							continue
						}
						v = nodeValue(mode.shape(), fe, k, wa, swr)
					} else {
						v = nodeValue(mode, fe, k, wa, sbe)
					}
					gs[m*nt+j] += wr*real(v) - wi*imag(v)
				}
			}
		}
		return nil
	}
	pool := s.pool
	if len(s.groups) < minDevicesParallel {
		pool = nil
	}
	if err := pool.ForEachContext(ctx, len(s.groups), run); err != nil {
		return err
	}
	// Validate and reduce in (mode, threshold, group) order: the same
	// per-group guarded validation, the same group-order weighted sum and
	// the same final clamp as the scalar mixture.
	for m, mode := range modes {
		write := mode.write()
		denom := s.totalRate
		if write {
			denom = s.totalWriteRate
		}
		for j, t := range ts {
			if t <= 0 {
				out[m][j] = 0
				continue
			}
			total := 0.0
			for i := range s.groups {
				weight := s.groups[i].weight
				if write {
					if weight = s.groups[i].writeWeight; weight == 0 {
						continue
					}
				}
				v, err := s.groupCDFFrom(sums[i*stride+m*nt+j], i, t, mode)
				if err != nil {
					return err
				}
				total += weight * v
			}
			out[m][j] = numeric.Clamp01(total / denom)
		}
	}
	return nil
}

// CDFBatch evaluates the system response-latency CDF at every threshold in
// ts through one traversal of the device mixture; CDFBatch(ts)[i] matches
// CDF(ts[i]) to within a few ulp (the quadrature's per-node 1/s factor is
// folded into the weights). Like CDF, a numerical failure reports zeros.
func (s *SystemModel) CDFBatch(ts []float64) []float64 {
	out, err := s.CDFBatchContext(context.Background(), ts)
	if err != nil {
		return make([]float64, len(ts))
	}
	return out
}

// CDFBatchContext is the context-aware CDFBatch: one guarded, cancellable
// traversal of the mixture answering every threshold. Cancellation and
// Options.EvalTimeout are observed between mixture groups as in
// CDFContext; a per-group inversion that stays invalid through the
// fallback chain surfaces as numeric.ErrNumerical and no partial result is
// returned.
func (s *SystemModel) CDFBatchContext(ctx context.Context, ts []float64) (out []float64, err error) {
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	done := s.beginSpan("cdf_batch")
	defer func() { done(len(ts), err) }()
	out = make([]float64, len(ts))
	if err := s.mixtureCDFBatch(ctx, []evalMode{modeFull}, ts, [][]float64{out}); err != nil {
		return nil, err
	}
	return out, nil
}

// CDFBatchKindsContext evaluates several system-level distributions over
// one threshold grid in a single traversal of the device mixture:
// out[m][j] is kinds[m] evaluated at ts[j], each entry matching the
// corresponding scalar evaluation (CDFContext, BackendCDFContext, or a
// WTANone model's CDFContext) to within a few ulp. The experiment sweeps use it to price the
// full model, its backend tier and the noWTA ablation at one traversal
// instead of three.
func (s *SystemModel) CDFBatchKindsContext(ctx context.Context, kinds []BatchKind, ts []float64) (out [][]float64, err error) {
	modes := make([]evalMode, len(kinds))
	for i, k := range kinds {
		if modes[i], err = k.mode(); err != nil {
			return nil, err
		}
	}
	ctx, cancel := s.opts.EvalContext(ctx)
	defer cancel()
	done := s.beginSpan("cdf_batch")
	defer func() { done(len(ts)*len(kinds), err) }()
	out = make([][]float64, len(kinds))
	for i := range out {
		out[i] = make([]float64, len(ts))
	}
	if err := s.mixtureCDFBatch(ctx, modes, ts, out); err != nil {
		return nil, err
	}
	return out, nil
}
