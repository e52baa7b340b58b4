// Package placement maintains an incrementally updated feasibility
// index over a deployment: for every constraint shape in the catalog
// (service.Shape — services of equal shape share one entry), the set of
// hosts an instance of that shape fits on right now, bucketed by
// performance index so the server-selection controller's
// performance-relation filter (scale-up wants a strictly faster host,
// scale-down a strictly slower one, move an equal one) is a bucket walk
// instead of a full cluster scan.
//
// The index never re-derives placement logic: feasibility is always the
// deployment's own verdict (service.HostState.Check, which CanPlace is
// made of) on one gathered host state — one boolean per shape,
// recomputed for exactly one host column whenever a mutation touches
// that host (instance started, stopped or moved; host pooled or
// unpooled) via the Cluster.Watch and Deployment.Watch observer hooks.
// Two filters are deliberately NOT materialized but applied at query
// time: the identity rule (a host already running the queried service
// is no candidate), the one rule that depends on the service rather
// than its shape; and protection mode — minute-scoped, self-expiring
// state owned by the controller, consulted through a Protection callback
// instead of chasing a second source of truth.
//
// Candidate enumeration order is canonical: performance-index buckets in
// ascending PI order, hosts within a bucket in cluster insertion order.
// This differs from the raw cluster order a full scan would produce, but
// any consumer that reduces candidates with a total-order comparator
// (the server-selection argmax does) is order-independent, and set
// equality with a full scan — a test oracle of the controller's — is
// what the parity tests assert.
package placement

import (
	"math"
	"sort"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/fuzzy"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// Protection reports minute-scoped host protection. The controller
// implements it; a nil Protection protects nothing.
type Protection interface {
	HostProtected(host string, minute int) bool
}

// Rel is the performance-index relation a candidate host must satisfy
// relative to a source performance index.
type Rel int

const (
	// RelAny accepts every performance level (placement actions:
	// scale-out, start).
	RelAny Rel = iota
	// RelAbove requires a strictly higher performance index (scale-up).
	RelAbove
	// RelBelow requires a strictly lower performance index (scale-down).
	RelBelow
	// RelEqual requires the same performance index (move).
	RelEqual
)

// HostRef is the index's handle on one pooled host: the immutable host
// attributes plus the precomputed archive entity key, so hot-path
// consumers never re-derive either. Load and memo are the selection
// controller's per-host state, owned by its single decision goroutine;
// the index never reads them.
type HostRef struct {
	// Host is the host's static description (a value copy; cluster
	// hosts are immutable once pooled).
	Host cluster.Host
	// Entity is the host's load-archive entity key, cached at pooling
	// time because deriving it concatenates strings.
	Entity string
	// Load is the host's archive handle, resolved from Entity by the
	// controller while it is not archive.Entity.Known.
	Load archive.Entity
	// seq orders hosts within a bucket by cluster insertion order.
	seq int64
	// fits is the feasibility column: bit i set = in shape i's buckets.
	fits []uint64
	// running marks a host running the service Index.resolved names.
	running bool
	// memo is the last score Memoise stored, inline: a box allocated on
	// first use would cost one allocation a host.
	memo struct {
		base  *fuzzy.RuleBase
		in    [memoSlots]uint64 // math.Float64bits of each input
		score float64
	}
}

// memoSlots bounds a memo's inputs: Table 3's ten selection variables.
const memoSlots = 10

func (r *HostRef) has(shape int) bool { return r.fits[shape>>6]&(1<<(shape&63)) != 0 }

// Memoised returns the score Memoise last stored for this rule base and
// bit-for-bit these inputs; hit is false for any other key. Bits, not
// ==: ±0 never share a score, and a NaN input hits only its own payload.
func (r *HostRef) Memoised(base *fuzzy.RuleBase, in []float64) (score float64, hit bool) {
	if r.memo.base != base || len(in) > memoSlots {
		return 0, false
	}
	for i, v := range in {
		if math.Float64bits(v) != r.memo.in[i] {
			return 0, false
		}
	}
	return r.memo.score, true
}

// Memoise stores the score a rule base gave these inputs, replacing the
// previous memo. An input vector longer than memoSlots is not kept.
func (r *HostRef) Memoise(base *fuzzy.RuleBase, in []float64, score float64) {
	if len(in) > memoSlots {
		return
	}
	r.memo.base, r.memo.score = base, score
	for i, v := range in {
		r.memo.in[i] = math.Float64bits(v)
	}
}

// bucket holds the feasible hosts of one (shape, performance index)
// pair, ordered by seq.
type bucket struct {
	refs []*HostRef
}

// insert adds r keeping seq order. The common case — a freshly pooled
// host carrying the highest seq so far — is an append.
func (b *bucket) insert(r *HostRef) {
	n := len(b.refs)
	if n == 0 || b.refs[n-1].seq < r.seq {
		b.refs = append(b.refs, r)
		return
	}
	i := sort.Search(n, func(i int) bool { return b.refs[i].seq >= r.seq })
	b.refs = append(b.refs, nil)
	copy(b.refs[i+1:], b.refs[i:])
	b.refs[i] = r
}

// remove deletes the ref with r's seq, if present.
func (b *bucket) remove(r *HostRef) {
	i := sort.Search(len(b.refs), func(i int) bool { return b.refs[i].seq >= r.seq })
	if i >= len(b.refs) || b.refs[i].seq != r.seq {
		return
	}
	b.refs = append(b.refs[:i], b.refs[i+1:]...)
}

// shapeIndex is one constraint shape's candidate-host structure.
type shapeIndex struct {
	shape service.Shape
	// pis lists the performance indices with a non-empty bucket, sorted
	// ascending — the walk order of AppendCandidates.
	pis []float64
	// buckets maps a performance index to its feasible hosts.
	buckets map[float64]*bucket
}

func (si *shapeIndex) add(r *HostRef) {
	pi := r.Host.PerformanceIndex
	b, ok := si.buckets[pi]
	if !ok {
		b = &bucket{}
		si.buckets[pi] = b
		i := sort.SearchFloat64s(si.pis, pi)
		si.pis = append(si.pis, 0)
		copy(si.pis[i+1:], si.pis[i:])
		si.pis[i] = pi
	}
	b.insert(r)
}

func (si *shapeIndex) drop(r *HostRef) {
	pi := r.Host.PerformanceIndex
	b, ok := si.buckets[pi]
	if !ok {
		return
	}
	b.remove(r)
	if len(b.refs) == 0 {
		delete(si.buckets, pi)
		i := sort.SearchFloat64s(si.pis, pi)
		if i < len(si.pis) && si.pis[i] == pi {
			si.pis = append(si.pis[:i], si.pis[i+1:]...)
		}
	}
}

// Index is the feasibility index over one deployment. It is maintained
// synchronously by the deployment's mutation hooks and therefore shares
// the deployment's concurrency contract: mutations and index queries
// must not race (the controller runs its decision loop on a single
// goroutine).
type Index struct {
	dep       *service.Deployment
	entityKey func(host string) string
	prot      Protection

	// shapes holds the catalog's distinct shapes — position i owns bit i
	// of every host's column — and shapeOf each service's entry; the
	// catalog is immutable after construction.
	shapes  []*shapeIndex
	shapeOf map[string]*shapeIndex
	refs    map[string]*HostRef
	nextSeq int64

	// resolved names the service whose running hosts are marked ("" once
	// a mutation outdated the marks), running lists the marked refs,
	// hostBuf is scratch: queries write, so they belong to one goroutine.
	resolved string
	running  []*HostRef
	hostBuf  []string

	hosts     *obs.Gauge
	refreshes *obs.Counter
}

// NewIndex builds the index over the deployment's current state and
// hooks it into the deployment's and cluster's mutation observers so it
// stays consistent from then on. entityKey derives a host's load-archive
// entity key (e.g. archive.HostEntity); nil leaves Entity empty.
func NewIndex(dep *service.Deployment, entityKey func(host string) string) *Index {
	if entityKey == nil {
		entityKey = func(string) string { return "" }
	}
	ix := &Index{
		dep:       dep,
		entityKey: entityKey,
		shapeOf:   make(map[string]*shapeIndex),
		refs:      make(map[string]*HostRef),
	}
	byShape := make(map[service.Shape]*shapeIndex)
	for _, svc := range dep.Catalog().All() {
		si := byShape[svc.Shape()]
		if si == nil {
			si = &shapeIndex{shape: svc.Shape(), buckets: make(map[float64]*bucket)}
			byShape[si.shape] = si
			ix.shapes = append(ix.shapes, si)
		}
		ix.shapeOf[svc.Name] = si
	}
	for _, h := range dep.Cluster().Hosts() {
		ix.addHost(h)
	}
	dep.Cluster().Watch(func(h cluster.Host, added bool) {
		if added {
			ix.addHost(h)
		} else {
			ix.removeHost(h.Name)
		}
	})
	dep.Watch(ix.RefreshHost)
	return ix
}

// SetProtection installs the protection-mode oracle consulted at query
// time. Nil protects nothing.
func (ix *Index) SetProtection(p Protection) { ix.prot = p }

// Instrument attaches the index's series — pooled hosts, distinct
// shapes, host-column refreshes; nil series record nothing.
func (ix *Index) Instrument(hosts, shapes *obs.Gauge, refreshes *obs.Counter) {
	ix.hosts, ix.refreshes = hosts, refreshes
	hosts.Set(float64(len(ix.refs)))
	shapes.Set(float64(len(ix.shapes)))
}

// addHost pools a host: mint its ref and compute its feasibility column.
func (ix *Index) addHost(h cluster.Host) {
	ix.nextSeq++
	ix.refs[h.Name] = &HostRef{Host: h, Entity: ix.entityKey(h.Name), seq: ix.nextSeq,
		fits: make([]uint64, (len(ix.shapes)+63)/64)}
	ix.hosts.Set(float64(len(ix.refs)))
	ix.RefreshHost(h.Name)
}

// removeHost unpools a host, dropping it from every shape's buckets.
func (ix *Index) removeHost(name string) {
	r, ok := ix.refs[name]
	if !ok {
		return
	}
	for i, si := range ix.shapes {
		if r.has(i) {
			si.drop(r)
		}
	}
	delete(ix.refs, name)
	ix.hosts.Set(float64(len(ix.refs)))
}

// RefreshHost recomputes one host's feasibility column: the deployment
// gathers the host's state once and gives its verdict per shape. It is
// the sole write path after construction — every mutation hook funnels
// here — so index feasibility can never drift from CanPlace's verdict.
func (ix *Index) RefreshHost(name string) {
	ix.resolved = ""
	r, ok := ix.refs[name]
	if !ok {
		return // mutation on an unpooled host (e.g. force-stop after host death)
	}
	ix.refreshes.Inc()
	st := ix.dep.HostState(name)
	for i, si := range ix.shapes {
		if feasible := st.Check(si.shape, "") == service.Fits; feasible != r.has(i) {
			r.fits[i>>6] ^= 1 << (i & 63)
			if feasible {
				si.add(r)
			} else {
				si.drop(r)
			}
		}
	}
}

// match reports whether a bucket's performance index satisfies the
// relation against the source PI.
func match(rel Rel, pi, srcPI float64) bool {
	switch rel {
	case RelAbove:
		return pi > srcPI
	case RelBelow:
		return pi < srcPI
	case RelEqual:
		return pi == srcPI
	}
	return true
}

// resolve finds the service's shape entry and marks the handful of hosts
// the identity rule takes out of it: those already running the service.
// The marks stand until a mutation or another service's query.
func (ix *Index) resolve(svc string) (*shapeIndex, bool) {
	si, ok := ix.shapeOf[svc]
	if ok && svc != ix.resolved {
		for _, r := range ix.running {
			r.running = false
		}
		ix.running = ix.running[:0]
		ix.hostBuf = ix.dep.AppendHostsOf(ix.hostBuf[:0], svc)
		for _, h := range ix.hostBuf {
			if r, ok := ix.refs[h]; ok {
				r.running = true
				ix.running = append(ix.running, r)
			}
		}
		ix.resolved = svc
	}
	return si, ok
}

// skip applies the query-time filters to one bucket entry.
func (ix *Index) skip(r *HostRef, minute int, exclude map[string]bool) bool {
	return r.running || exclude[r.Host.Name] || ix.prot != nil && ix.prot.HostProtected(r.Host.Name, minute)
}

// AppendCandidates appends every host on which the service can be
// placed right now, whose performance index satisfies rel against
// srcPI, that is not excluded and not in protection mode at the given
// minute. Candidates are appended in canonical index order (ascending
// PI bucket, insertion order within the bucket); buf is reused
// append-style so steady-state enumeration allocates nothing.
func (ix *Index) AppendCandidates(buf []*HostRef, svc string, rel Rel, srcPI float64, minute int, exclude map[string]bool) []*HostRef {
	si, ok := ix.resolve(svc)
	if !ok {
		return buf
	}
	for _, pi := range si.pis {
		if !match(rel, pi, srcPI) {
			continue
		}
		for _, r := range si.buckets[pi].refs {
			if !ix.skip(r, minute, exclude) {
				buf = append(buf, r)
			}
		}
	}
	return buf
}

// AnyCandidate reports whether at least one candidate exists, short-
// circuiting on the first hit — the feasibility probe behind the
// controller's anyTarget, reduced from a full cluster scan to (usually)
// one bucket peek.
func (ix *Index) AnyCandidate(svc string, rel Rel, srcPI float64, minute int, exclude map[string]bool) bool {
	si, ok := ix.resolve(svc)
	if !ok {
		return false
	}
	for _, pi := range si.pis {
		if !match(rel, pi, srcPI) {
			continue
		}
		for _, r := range si.buckets[pi].refs {
			if !ix.skip(r, minute, exclude) {
				return true
			}
		}
	}
	return false
}
