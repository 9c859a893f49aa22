package core

import (
	"fmt"
	"sync"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/queueing"
)

// FrontendModel is the paper's frontend-tier model (Section III-C): the
// frontend processes are homogeneous M/G/1 queues whose service time is the
// request-parsing latency, so the tier-wide queueing-latency distribution
// equals any single process's sojourn distribution at rate r/Nfe.
type FrontendModel struct {
	// TotalRate is the aggregate request arrival rate at the frontend
	// tier (req/s).
	TotalRate float64
	// Procs is Nfe, the number of frontend processes across all servers
	// (summed over sets for a heterogeneous tier).
	Procs int
	// Parse is the frontend request-parsing latency distribution (nil
	// for a heterogeneous tier, whose sets have their own).
	Parse dist.Distribution

	sqOnce sync.Once // builds a homogeneous tier's sq on first use
	sq     lst.Transform
	util   float64
	sets   []FrontendSet // a heterogeneous tier's sets, for scaled

	// A homogeneous tier's per-process queue and the table of its parse
	// transform's values per threshold — rate-invariant, so shared with
	// scaled models (nil for a heterogeneous tier).
	q         queueing.MG1
	parseVals *nodeTable[complex128]
}

// NewFrontendModel validates and builds the frontend model. It returns
// ErrOverload (wrapped) if a frontend process would be saturated.
func NewFrontendModel(totalRate float64, procs int, parse dist.Distribution) (*FrontendModel, error) {
	switch {
	case totalRate <= 0:
		return nil, fmt.Errorf("%w: frontend rate %v", ErrBadParams, totalRate)
	case procs < 1:
		return nil, fmt.Errorf("%w: frontend procs %d", ErrBadParams, procs)
	case parse == nil || parse.Mean() <= 0:
		return nil, fmt.Errorf("%w: frontend parse distribution", ErrBadParams)
	}
	return newFrontendModel(totalRate, procs, parse, new(nodeTable[complex128]))
}

// newFrontendModel builds a homogeneous tier's model reading its parse
// values from parseVals.
func newFrontendModel(totalRate float64, procs int, parse dist.Distribution, parseVals *nodeTable[complex128]) (*FrontendModel, error) {
	f := &FrontendModel{TotalRate: totalRate, Procs: procs, Parse: parse, parseVals: parseVals}
	ri := totalRate / float64(procs)
	q, err := queueing.NewMG1(ri, lst.FromDist(parse))
	if err != nil {
		return nil, fmt.Errorf("%w: frontend process: %v", ErrOverload, err)
	}
	f.q = q
	f.util = ri * parse.Mean()
	return f, nil
}

// FrontendSet is one homogeneous group of frontend servers within a
// heterogeneous tier: the paper notes that such a tier "can be divided into
// several sets of homogeneous servers, and the distribution of queueing
// latencies can be calculated separately".
type FrontendSet struct {
	// Rate is the aggregate arrival rate handled by this set (req/s).
	Rate float64
	// Procs is the number of processes in the set.
	Procs int
	// Parse is the set's request-parsing latency distribution.
	Parse dist.Distribution
}

// NewHeterogeneousFrontend builds the frontend model of a tier made of
// several homogeneous sets: each set is its own M/G/1 family, and the
// tier-wide queueing-latency distribution is the rate-weighted mixture of
// the per-set sojourn distributions.
func NewHeterogeneousFrontend(sets []FrontendSet) (*FrontendModel, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("%w: heterogeneous frontend needs at least one set", ErrBadParams)
	}
	var (
		transforms []lst.Transform
		weights    []float64
		totalRate  float64
		totalProcs int
		maxUtil    float64
	)
	for i, set := range sets {
		sub, err := NewFrontendModel(set.Rate, set.Procs, set.Parse)
		if err != nil {
			return nil, fmt.Errorf("frontend set %d: %w", i, err)
		}
		transforms = append(transforms, sub.Sojourn())
		weights = append(weights, set.Rate)
		totalRate += set.Rate
		totalProcs += set.Procs
		if u := sub.Utilization(); u > maxUtil {
			maxUtil = u
		}
	}
	return &FrontendModel{
		TotalRate: totalRate,
		Procs:     totalProcs,
		sq:        lst.Mix(transforms, weights),
		util:      maxUtil,
		sets:      append([]FrontendSet(nil), sets...),
	}, nil
}

// scaled returns the frontend model with every arrival rate multiplied by
// f (see SystemModel.Scaled).
func (f *FrontendModel) scaled(factor float64) (*FrontendModel, error) {
	if f.sets == nil {
		return newFrontendModel(f.TotalRate*factor, f.Procs, f.Parse, f.parseVals)
	}
	sets := append([]FrontendSet(nil), f.sets...)
	for i := range sets {
		sets[i].Rate *= factor
	}
	return NewHeterogeneousFrontend(sets)
}

// sojournAt appends Sq at every node to dst. For a homogeneous tier it is
// the M/G/1 sojourn W(s)·B(s) composed from one parse value per node — read
// from the parse table when nodes are threshold t's primary quadrature
// (cached), the same arithmetic as Sojourn().F otherwise.
func (f *FrontendModel) sojournAt(dst []complex128, t float64, nodes []complex128, cached bool) []complex128 {
	if f.sets != nil {
		sq := f.Sojourn().F
		for _, s := range nodes {
			dst = append(dst, sq(s))
		}
		return dst
	}
	b := f.q.Service.F
	var row []complex128
	if cached {
		row = f.parseVals.row(t, nodes, b)
	}
	for k, s := range nodes {
		var bs complex128
		if row != nil {
			bs = row[k]
		} else {
			bs = b(s)
		}
		dst = append(dst, f.sojournValue(s, bs))
	}
	return dst
}

// sojournValue composes a homogeneous tier's M/G/1 sojourn W(s)·B(s) at s
// from one parse value bs = B(s).
func (f *FrontendModel) sojournValue(s, bs complex128) complex128 {
	return f.q.WaitingValue(s, bs) * bs
}

// Sojourn returns Sq: the frontend queueing-plus-parsing latency transform.
// A homogeneous tier's is composed from one parse evaluation per node.
func (f *FrontendModel) Sojourn() lst.Transform {
	f.sqOnce.Do(func() {
		if f.sets == nil {
			b := f.q.Service.F
			f.sq = lst.Transform{
				F:    func(s complex128) complex128 { return f.sojournValue(s, b(s)) },
				Mean: f.q.SojournLST().Mean,
			}
		}
	})
	return f.sq
}

// belowParse reports whether x lies below every parse time of the tier,
// where Sq's CDF is exactly 0: a request's sojourn includes its own parse.
func (f *FrontendModel) belowParse(x float64) bool {
	if f.sets == nil {
		return f.Parse.CDF(x) == 0
	}
	for _, set := range f.sets {
		if set.Parse.CDF(x) != 0 {
			return false
		}
	}
	return true
}

// Utilization returns the per-process utilization (the maximum over sets
// for a heterogeneous tier).
func (f *FrontendModel) Utilization() float64 { return f.util }
