package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
	"cosmodel/internal/queueing"
)

// DeviceModel is the paper's backend-tier model for one storage device: the
// union-operation M/G/1 queue, its waiting-time distribution (which doubles
// as the WTA distribution), and the backend response-time distribution.
//
// The model splits along the paper's own seam. Load enters only the
// queueing terms: the per-process union queue (its arrival rate, and
// through the Pollaczek–Khinchin formula Wbe, Wa, Sbe and Swr). With one
// process per disk every leaf below the queue — parse, the rescaled
// per-class disk latencies, cache-miss mixing, the extra-read compound —
// depends on rate ratios only, so it lives in a deviceLeaves value that a
// Scaled model shares with its parent.
type DeviceModel struct {
	props   DeviceProperties
	metrics OnlineMetrics
	opts    Options

	lv *deviceLeaves // rate-invariant leaves (shared across Scaled models when Nbe = 1)

	// Write-class pipeline, populated when OnlineMetrics.WriteRate > 0.
	// A PUT replica sub-request is parse + index write + WriteChunks
	// data-chunk writes + metadata write, all reaching the disk (no cache
	// shortcut) — but the event loop does not serve it as one operation.
	// The data chunks arrive over the network one at a time, so the
	// process interleaves other requests between them: the replica is a
	// head operation (parse + index write), writePW middle operations
	// (one data-chunk write each) and a tail operation (final chunk +
	// metadata write), each a separate FCFS arrival to the same
	// per-process queue as reads.
	writeRate float64
	writePW   float64 // mean middle-chunk ops per write (WriteChunks-1)
	// Normalized service-mixture weights of the shared queue over the
	// four operation streams [read union, write head, write middle chunk,
	// write tail]; their arithmetic mirrors lst.Mix exactly so the node
	// kernel reproduces the queue's service value bit-for-bit.
	fracRead, fracHead, fracMid, fracTail float64

	procRate float64       // per-process arrival rate r/Nbe
	unionQ   queueing.MG1  // per-process union-operation queue
	wa       lst.Transform // WTAExact only: the tabulated accept waiting
}

// deviceLeaves is the rate-invariant half of a device model: the leaf
// transforms of the pipeline and the per-threshold table of their values at
// the inversion nodes. With Nbe = 1 it depends on the operating point only
// through rate ratios (miss ratios, extra reads per request, the Section
// IV-B service-mean solve), so DeviceModel.scaled shares it; with Nbe > 1
// the raw disk latency is the M/M/1/K sojourn at the disk arrival rate and
// every scaled model builds its own.
type deviceLeaves struct {
	parse                    lst.Transform // backend parse latency
	rawIdx, rawMeta, rawData lst.Transform // raw disk latency per class
	rawShared                bool          // one disk transform stands in for all three classes
	// effective per-operation latency transforms (cache-mixed).
	opIndex, opMeta, opData lst.Transform
	missIdx, missMeta       float64 // effective (ODOPR-adjusted, clamped) miss ratios
	missData                float64
	extraVal                func(pd complex128) complex128 // extra-reads factor given the opData value
	union                   lst.Transform                  // Bbe: union operation service time (read class)
	wHead, wTail            lst.Transform                  // write head (parse + index) and tail (chunk + meta) ops

	table nodeTable[leafRec]
}

// NewDeviceModel builds the model for one device. It returns ErrOverload
// (wrapped) if the union-operation queue has no steady state.
func NewDeviceModel(props DeviceProperties, m OnlineMetrics, opts Options) (*DeviceModel, error) {
	if err := props.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	d := &DeviceModel{props: props, metrics: m, opts: opts}
	lv, err := d.buildLeaves()
	if err != nil {
		return nil, err
	}
	d.lv = lv
	if err := d.buildQueue(); err != nil {
		return nil, err
	}
	return d, nil
}

// scaled returns the device model with its read, data and write rates
// multiplied by f. With Nbe = 1 only the queue is rebuilt and the leaves
// (with their value table) are shared; with Nbe > 1 the disk sojourn is
// load-dependent, so the model is built afresh.
func (d *DeviceModel) scaled(f float64) (*DeviceModel, error) {
	m := d.metrics
	m.Rate *= f
	m.DataRate *= f
	m.WriteRate *= f
	if m.Procs > 1 {
		return NewDeviceModel(d.props, m, d.opts)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &DeviceModel{props: d.props, metrics: m, opts: d.opts, lv: d.lv}
	if err := c.buildQueue(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildLeaves assembles the leaf transforms following Section III-B.
func (d *DeviceModel) buildLeaves() (*deviceLeaves, error) {
	m := d.metrics
	lv := &deviceLeaves{}
	// Step 1: effective raw disk-latency transforms per operation.
	idx, meta, data, shared, err := d.diskOperationTransforms()
	if err != nil {
		return nil, err
	}
	lv.rawIdx, lv.rawMeta, lv.rawData, lv.rawShared = idx, meta, data, shared
	// Step 2: cache-aware operation latencies
	// index(t) = indexd(t)·m + δ(t)(1-m), etc.
	mi, mm, md := m.MissIndex, m.MissMeta, m.MissData
	p := m.ExtraReads()
	if d.opts.ODOPR {
		// Baseline: at most one disk operation per request — index,
		// metadata and extra data reads all "hit".
		mi, mm, p = 0, 0, 0
	}
	lv.opIndex = lst.HitOrMiss(idx, mi)
	lv.opMeta = lst.HitOrMiss(meta, mm)
	lv.opData = lst.HitOrMiss(data, md)
	lv.missIdx, lv.missMeta, lv.missData = clampUnit(mi), clampUnit(mm), clampUnit(md)
	lv.parse = lst.FromDist(d.props.ParseBE)

	// Step 3: the union operation. Each union operation is one request's
	// parse + index + meta + data plus a random number of extra data
	// chunk reads belonging to other requests, interleaved by the event
	// loop. extraVal mirrors the compound transform's arithmetic exactly
	// so the node kernel reproduces extra.F from an already-computed
	// opData value.
	var extra lst.Transform
	switch d.opts.Compound {
	case CompoundFixed:
		n := int(math.Round(p))
		extra = lst.FixedCompound(lv.opData, n)
		lv.extraVal = func(pd complex128) complex128 {
			if n <= 0 {
				return 1
			}
			return cmplx.Pow(pd, complex(float64(n), 0))
		}
	case CompoundGeometric:
		extra = lst.GeometricCompound(lv.opData, p)
		q := p / (1 + p)
		lv.extraVal = func(pd complex128) complex128 {
			if p <= 0 {
				return 1
			}
			return complex(1-q, 0) / (1 - complex(q, 0)*pd)
		}
	default:
		extra = lst.PoissonCompound(lv.opData, p)
		lv.extraVal = func(pd complex128) complex128 {
			if p <= 0 {
				return 1
			}
			return cmplx.Exp(complex(p, 0) * (pd - 1))
		}
	}
	lv.union = lst.Convolve(lv.parse, lv.opIndex, lv.opMeta, lv.opData, extra)
	if m.WriteRate > 0 {
		// Every write op reaches the disk — no cache shortcut.
		lv.wHead = lst.Convolve(lv.parse, lv.rawIdx)
		lv.wTail = lst.Convolve(lv.rawData, lv.rawMeta)
	}
	return lv, nil
}

// buildQueue builds the load-dependent part: the M/G/1 queue of union
// operations, per process. With write traffic the same FCFS queue serves
// both classes, so write load inflates the waiting (and through it Wa and
// Sbe) seen by reads, and vice versa — but a write replica does NOT enter
// the queue as one monolithic operation. The event loop serves it as
// separate operations with other work interleaved between them (the chunks
// arrive over the network one at a time): a head op (parse + index write),
// one op per middle data chunk, and a tail op (final chunk + metadata
// write). Folding all of that into a single service time would inflate the
// service second moment — and through Pollaczek–Khinchin the waiting of
// every class — several-fold, so the queue's service is the rate-weighted
// mixture over the four operation streams and its arrival rate counts
// operations, not replicas. A zero write rate leaves the read-only pipeline
// structurally unchanged.
func (d *DeviceModel) buildQueue() error {
	m := d.metrics
	lv := d.lv
	d.writeRate = m.WriteRate
	svc := lv.union
	totalRate := m.Rate
	if m.WriteRate > 0 {
		// The middle-chunk count is Poisson with mean WriteChunks-1,
		// mirroring the read path's extra-reads treatment of a
		// size-dependent operation count.
		pw := m.WriteChunks - 1
		d.writePW = pw
		weights := []float64{m.Rate, m.WriteRate, m.WriteRate * pw, m.WriteRate}
		svc = lst.Mix([]lst.Transform{lv.union, lv.wHead, lv.rawData, lv.wTail}, weights)
		// Accumulate the total in lst.Mix's order so the stored
		// fractions equal its normalized weights bit-for-bit.
		totalRate = 0
		for _, w := range weights {
			totalRate += w
		}
		d.fracRead = m.Rate / totalRate
		d.fracHead = m.WriteRate / totalRate
		d.fracMid = m.WriteRate * pw / totalRate
		d.fracTail = m.WriteRate / totalRate
	}
	d.procRate = totalRate / float64(m.Procs)
	q, err := queueing.NewMG1(d.procRate, svc)
	if err != nil {
		return fmt.Errorf("%w: device union queue: %v", ErrOverload, err)
	}
	d.unionQ = q
	// Waiting time for being accept()-ed: only the exact integral needs a
	// transform of its own (WTAApprox reuses Wbe, WTANone is 1).
	if d.opts.WTA == WTAExact {
		d.wa = d.exactWTA()
	}
	return nil
}

// diskOperationTransforms produces the effective raw disk latency transform
// per operation class, handling both the single-process case (scaled fitted
// distributions) and the multi-process case (disk queue sojourn). shared
// reports that one transform stands in for all three classes, letting the
// evaluation engine evaluate it once per frequency.
func (d *DeviceModel) diskOperationTransforms() (idx, meta, data lst.Transform, shared bool, err error) {
	m := d.metrics
	bi, bm, bd := d.scaledServiceMeans()
	iDist := dist.ScaleToMean(d.props.IndexDisk, bi)
	mDist := dist.ScaleToMean(d.props.MetaDisk, bm)
	dDist := dist.ScaleToMean(d.props.DataDisk, bd)

	if m.Procs == 1 {
		return lst.FromDist(iDist), lst.FromDist(mDist), lst.FromDist(dDist), false, nil
	}

	// Nbe > 1: the disk is shared by Nbe processes, each blocking on its
	// one outstanding operation, so at most Nbe operations are in the
	// disk system. Different operation types mix in the disk queue, so a
	// single "disk response latency" distribution replaces all three.
	mi, mm, md := m.MissIndex, m.MissMeta, m.MissData
	if d.opts.ODOPR {
		mi, mm = 0, 0
	}
	// Writes always reach the disk: every PUT replica adds one index
	// write, one metadata write and WriteChunks data-chunk writes to the
	// disk arrival stream (zero terms for a read-only workload).
	rIndex := mi*m.Rate + m.WriteRate
	rMeta := mm*m.Rate + m.WriteRate
	dataRate := m.DataRate
	if d.opts.ODOPR {
		dataRate = m.Rate
	}
	rData := md*dataRate + m.WriteRate*m.WriteChunks
	rDisk := rIndex + rMeta + rData
	if rDisk <= 0 {
		// Nothing reaches the disk; latencies are all zero.
		zero := lst.FromDist(dist.Degenerate{Value: 0})
		return zero, zero, zero, true, nil
	}
	// Overall mean raw service time b for the operation mix.
	b := (rIndex*bi + rMeta*bm + rData*bd) / rDisk

	var sojourn lst.Transform
	switch d.opts.DiskQueue {
	case DiskMG1:
		// Ablation: unbounded disk queue with the true service mixture.
		svc := lst.Mix(
			[]lst.Transform{lst.FromDist(iDist), lst.FromDist(mDist), lst.FromDist(dDist)},
			[]float64{rIndex, rMeta, rData},
		)
		q, qerr := queueing.NewMG1(rDisk, svc)
		if qerr != nil {
			return idx, meta, data, false, fmt.Errorf("%w: disk M/G/1: %v", ErrOverload, qerr)
		}
		sojourn = q.SojournLST()
	default:
		// The paper's approximation: M/M/1/K with K = Nbe.
		q, qerr := queueing.NewMM1K(rDisk, 1/b, m.Procs)
		if qerr != nil {
			return idx, meta, data, false, fmt.Errorf("%w: %v", ErrBadParams, qerr)
		}
		sojourn = q.SojournLST()
	}
	return sojourn, sojourn, sojourn, true, nil
}

// scaledServiceMeans solves Section IV-B's proportion equations for the
// per-operation mean service times (bi, bm, bd) given the online overall
// mean b; if no online measurement is available the fitted means are used
// unchanged.
func (d *DeviceModel) scaledServiceMeans() (bi, bm, bd float64) {
	bi = d.props.IndexDisk.Mean()
	bm = d.props.MetaDisk.Mean()
	bd = d.props.DataDisk.Mean()
	b := d.metrics.DiskMean
	if b <= 0 {
		return bi, bm, bd
	}
	pi, pm, pd := d.props.Proportions()
	m := d.metrics
	// bi/pi = bm/pm = bd/pd = x and the rate-weighted mean over every
	// disk operation class — read misses plus the write stream's
	// unconditional index/meta/chunk writes — equals the observed b.
	num := (m.MissIndex*m.Rate + m.MissMeta*m.Rate + m.MissData*m.DataRate +
		m.WriteRate*(2+m.WriteChunks)) * b
	den := m.MissIndex*pi*m.Rate + m.MissMeta*pm*m.Rate + m.MissData*pd*m.DataRate +
		m.WriteRate*(pi+pm+m.WriteChunks*pd)
	if den <= 0 || num <= 0 {
		return bi, bm, bd
	}
	x := num / den
	return pi * x, pm * x, pd * x
}

// exactWTA evaluates the paper's exact accept-waiting integral numerically:
// P(Wa > t) = ∫_{x≥t} a(x)·(x-t)/x dx, where a is the accept-lifetime
// density (the continuous part of Wbe; the atom at zero contributes
// zero-waiting connections). The resulting CDF is re-encoded as a
// grid-based transform so it can be convolved with the other components.
func (d *DeviceModel) exactWTA() lst.Transform {
	inv := d.opts.inverter()
	wbe := d.Waiting()
	// Grid over the waiting-time support: out to far tail of Wbe.
	hi := wbe.Mean * 12
	if hi <= 0 {
		return lst.One()
	}
	const gridN = 160
	step := hi / gridN
	// Tabulate the continuous density a(x) = rho-weighted pdf for x > 0.
	dens := make([]float64, gridN+1)
	xs := make([]float64, gridN+1)
	for i := 1; i <= gridN; i++ {
		x := float64(i) * step
		xs[i] = x
		dens[i] = lst.PDF(inv, wbe, x)
	}
	survival := func(t float64) float64 {
		s := 0.0
		for i := 1; i <= gridN; i++ {
			x := xs[i]
			if x <= t {
				continue
			}
			s += dens[i] * (x - t) / x * step
		}
		return numeric.Clamp01(s)
	}
	// Build CDF table and mean; P(Wa = 0) >= 1 - rho (atom).
	cdf := make([]float64, gridN+1)
	mean := 0.0
	for i := 0; i <= gridN; i++ {
		cdf[i] = 1 - survival(float64(i)*step)
		if i > 0 {
			mean += (1 - cdf[i]) * step
		}
	}
	return gridTransform(xs, cdf, mean)
}

// gridTransform builds an lst.Transform from a tabulated CDF via the
// Laplace–Stieltjes sum over grid increments (a discrete approximation of
// the distribution).
func gridTransform(xs, cdf []float64, mean float64) lst.Transform {
	n := len(xs)
	masses := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		masses[i] = cdf[i] - prev
		if masses[i] < 0 {
			masses[i] = 0
		}
		prev = cdf[i]
	}
	// Any residual tail mass sits at the last grid point.
	tail := 1 - prev
	if tail > 0 {
		masses[n-1] += tail
	}
	points := append([]float64(nil), xs...)
	return lst.Transform{
		F: func(s complex128) complex128 {
			var sum complex128
			for i, m := range masses {
				if m == 0 {
					continue
				}
				sum += complex(m, 0) * lst.Delay(points[i]).F(s)
			}
			return sum
		},
		Mean: mean,
	}
}

// The composed transforms below are built on demand: the evaluation engine
// never needs them (it composes leaf values at each node, see node), only
// the opaque-inverter path, mean-based brackets and introspection do.

// Union returns the union-operation service transform Bbe.
func (d *DeviceModel) Union() lst.Transform { return d.lv.union }

// Waiting returns the request-processing-queue waiting transform Wbe.
func (d *DeviceModel) Waiting() lst.Transform { return d.unionQ.WaitingLST() }

// Backend returns the backend response transform Sbe (Eq. 1):
// Sbe = Wbe ∗ parse ∗ index ∗ meta ∗ data.
func (d *DeviceModel) Backend() lst.Transform {
	lv := d.lv
	return lst.Convolve(d.Waiting(), lv.parse, lv.opIndex, lv.opMeta, lv.opData)
}

// WTA returns the accept-waiting transform Wa.
func (d *DeviceModel) WTA() lst.Transform {
	switch d.opts.WTA {
	case WTANone:
		return lst.One()
	case WTAExact:
		return d.wa
	default:
		return d.Waiting()
	}
}

// Utilization returns the per-process union-operation utilization ρ (both
// traffic classes when write traffic is modeled).
func (d *DeviceModel) Utilization() float64 { return d.unionQ.Utilization() }

// Rate returns the device's request arrival rate r.
func (d *DeviceModel) Rate() float64 { return d.metrics.Rate }

// WriteRate returns the device's PUT replica arrival rate (0 for a
// read-only workload).
func (d *DeviceModel) WriteRate() float64 { return d.metrics.WriteRate }

// WriteOp returns the total write-work transform — every operation of one
// PUT replica convolved (the zero Transform when no write traffic is
// modeled). The queue serves these as separate operations; this is the
// summed service, for introspection.
func (d *DeviceModel) WriteOp() lst.Transform {
	if d.writeRate <= 0 {
		return lst.Transform{}
	}
	lv := d.lv
	return lst.Convolve(lv.parse, lv.rawIdx, lv.rawMeta, lv.rawData,
		lst.PoissonCompound(lv.rawData, d.writePW))
}

// WriteResponse returns the write replica response transform Swr: each of
// the replica's operations queues behind the shared waiting independently,
// so the response is the convolution of the per-operation sojourns
// (Wbe ∗ head) ∗ compound(Wbe ∗ chunk) ∗ (Wbe ∗ tail) — the zero Transform
// when no write traffic is modeled.
func (d *DeviceModel) WriteResponse() lst.Transform {
	if d.writeRate <= 0 {
		return lst.Transform{}
	}
	lv, wbe := d.lv, d.Waiting()
	return lst.Convolve(
		lst.Convolve(wbe, lv.wHead),
		lst.PoissonCompound(lst.Convolve(wbe, lv.rawData), d.writePW),
		lst.Convolve(wbe, lv.wTail),
	)
}

// BackendCDF evaluates the backend response-latency CDF at t.
func (d *DeviceModel) BackendCDF(t float64) float64 {
	return lst.CDF(d.opts.inverter(), d.Backend(), t)
}

// clampUnit clamps a miss ratio to [0,1], matching lst.HitOrMiss.
func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// leafRec holds every leaf transform of the device pipeline evaluated at
// one frequency: the parse factor, the cache-mixed per-operation factors
// (pi, pm, pd), the raw disk factors behind them (ri, rm, rd — the write
// path reads them directly, misses being certain for writes) and the
// extra-reads compound factor.
type leafRec struct {
	pr, pi, pm, pd complex128
	ri, rm, rd     complex128
	extra          complex128
}

// leaves evaluates the leaf record at s. In multi-process mode one shared
// disk-sojourn evaluation stands in for all three raw classes.
func (lv *deviceLeaves) leaves(s complex128) (l leafRec) {
	l.pr = lv.parse.F(s)
	if lv.rawShared {
		l.rd = lv.rawData.F(s)
		l.ri, l.rm = l.rd, l.rd
	} else {
		l.ri = lv.rawIdx.F(s)
		l.rm = lv.rawMeta.F(s)
		l.rd = lv.rawData.F(s)
	}
	l.pi = complex(lv.missIdx, 0)*l.ri + complex(1-lv.missIdx, 0)
	l.pm = complex(lv.missMeta, 0)*l.rm + complex(1-lv.missMeta, 0)
	l.pd = complex(lv.missData, 0)*l.rd + complex(1-lv.missData, 0)
	l.extra = lv.extraVal(l.pd)
	return l
}

// maxTableRows bounds a node table. An admission search reads one row —
// its SLA threshold — from every scaled probe model; quantile and
// coded-read searches probe a fresh threshold each time and would only fill
// the table with rows nobody reads again.
const maxTableRows = 4

// nodeTable memoizes rate-invariant leaf values per threshold at the
// primary inverter's nodes for that threshold. It lives as long as the
// model part that owns it — in serving, one admission search: the base
// model and every Scaled probe model of that search, nothing longer. Safe
// for concurrent use.
type nodeTable[T any] struct {
	mu   sync.Mutex
	rows map[float64]*nodeRow[T]
}

type nodeRow[T any] struct {
	once  sync.Once
	nodes []complex128 // the quadrature the row was filled at
	vals  []T
}

// row returns eval at every node of threshold t's quadrature, evaluating
// them on first use. It returns nil — the caller then evaluates per node —
// once the table holds maxTableRows other thresholds, or when the row for t
// was filled at other nodes (a device or frontend shared by system models
// whose inverters differ).
func (tb *nodeTable[T]) row(t float64, nodes []complex128, eval func(complex128) T) []T {
	tb.mu.Lock()
	r := tb.rows[t]
	if r == nil {
		if len(tb.rows) >= maxTableRows {
			tb.mu.Unlock()
			return nil
		}
		if tb.rows == nil {
			tb.rows = make(map[float64]*nodeRow[T], maxTableRows)
		}
		r = new(nodeRow[T])
		tb.rows[t] = r
	}
	tb.mu.Unlock()
	r.once.Do(func() {
		r.nodes = append([]complex128(nil), nodes...)
		r.vals = make([]T, len(nodes))
		for k, s := range nodes {
			r.vals[k] = eval(s)
		}
	})
	if !slices.Equal(r.nodes, nodes) {
		return nil
	}
	return r.vals
}

// node is the device's one node kernel: from the leaf record at inversion
// frequency s it composes the shared queue's waiting value and returns the
// accept waiting Wa, the backend response Sbe and, when write is set, the
// write replica response Swr (the convolution of per-operation sojourns:
// head, Poisson-compound middle chunks, tail; 0 for a read-only device,
// which contributes nothing to a write mixture). The nested Transform
// closures would evaluate each leaf up to three times per frequency (inside
// the union service time feeding the P-K waiting term, in Sbe's own
// convolution, and again through Wa = Wbe); here every leaf is read once.
// The arithmetic mirrors the closure pipeline term for term, so results
// agree with Transform.F to floating-point associativity (well below
// 1e-12). It is safe for concurrent use: the receiver is immutable after
// construction.
func (d *DeviceModel) node(s complex128, l *leafRec, write bool) (wa, sbe, swr complex128) {
	union := l.pr * l.pi * l.pm * l.pd * l.extra
	svc := union
	if d.writeRate > 0 {
		// The shared queue's service value: the rate-weighted mixture
		// over the four operation streams, mirroring lst.Mix term for
		// term.
		svc = complex(d.fracRead, 0)*union + complex(d.fracHead, 0)*(l.pr*l.ri) +
			complex(d.fracMid, 0)*l.rd + complex(d.fracTail, 0)*(l.rd*l.rm)
	}
	w := d.unionQ.WaitingValue(s, svc)
	sbe = w * l.pr * l.pi * l.pm * l.pd
	if write && d.writeRate > 0 {
		swr = (w * (l.pr * l.ri)) * (w * (l.rd * l.rm))
		if d.writePW > 0 {
			swr *= cmplx.Exp(complex(d.writePW, 0) * (w*l.rd - 1))
		}
	}
	return d.waValue(s, w), sbe, swr
}

// waValue maps the shared waiting value onto the configured WTA mode.
func (d *DeviceModel) waValue(s, w complex128) complex128 {
	switch d.opts.WTA {
	case WTANone:
		return 1
	case WTAExact:
		return d.wa.F(s)
	default:
		return w
	}
}
