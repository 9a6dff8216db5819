// Package alloc is the pluggable service-allocation subsystem of the
// shared-edge multi-device scenario: given the per-slot edge budget and
// the backlogs the devices observed at the start of the slot, an
// Allocator decides each device's share of the budget. The paper's
// multi-device claim (§II) is exercised with the information-free
// EqualSplit; the other strategies use exactly the backlog information
// the edge server can see (queue lengths, not device internals), so the
// devices themselves stay fully distributed — only the server-side split
// changes. Ren et al. ("An Edge-Computing Based Architecture for Mobile
// Augmented Reality") and Chen et al. ("Learn to Optimize Resource
// Allocation under QoS Constraint of AR") study this split as the main
// lever; this package makes it a first-class, swappable policy.
package alloc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Allocator splits one slot's shared service budget across devices.
//
// Implementations fill shares (len(shares) == len(backlogs)) with
// non-negative values summing to at most budget; work-conserving
// strategies sum to exactly budget. backlogs[i] is device i's queue
// observed at the start of the slot — allocation happens before the
// slot's arrivals, so strategies that clamp shares to backlogs should
// redistribute the surplus rather than idle it if they want same-slot
// arrivals served. Allocators may keep per-run state (rotation pointers,
// deficit counters) and are not safe for concurrent use; build one per
// run, as sessions do.
type Allocator interface {
	Allocate(t int, budget float64, backlogs, shares []float64)
	// Name identifies the strategy in traces and ablation rows.
	Name() string
}

// Learner is the optional feedback half of an online-learning
// allocator. After every slot the simulator reports the outcome the
// allocator's last Allocate produced: utilities[i] is device i's
// realized utility for slot t and backlogs[i] its queue at the end of
// the slot. Static strategies ignore outcomes and simply don't
// implement Learner; the run loops type-assert and call Learn only
// when present.
type Learner interface {
	Learn(t int, utilities, backlogs []float64)
}

// EqualSplit is the paper's information-free baseline: every device gets
// budget/N regardless of backlogs, preserving full distribution (no
// queue state crosses the air interface). This reproduces the
// pre-allocator multi-device behavior bit-for-bit.
type EqualSplit struct{}

// Allocate implements Allocator.
func (EqualSplit) Allocate(_ int, budget float64, _, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	share := budget / float64(n)
	for i := range shares {
		shares[i] = share
	}
}

// Name implements Allocator.
func (EqualSplit) Name() string { return "equal-split" }

// ProportionalBacklog grants each device a share proportional to its
// observed backlog — the fluid analogue of proportional-fair scheduling.
// A ReserveFraction of the budget (clamped to [0,1]) is always split
// equally so empty queues can serve their same-slot arrivals; with all
// backlogs zero the whole budget splits equally.
type ProportionalBacklog struct {
	ReserveFraction float64
}

// Allocate implements Allocator.
func (a *ProportionalBacklog) Allocate(_ int, budget float64, backlogs, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	var total float64
	for _, q := range backlogs {
		if q > 0 {
			total += q
		}
	}
	reserve := a.ReserveFraction
	if reserve < 0 {
		reserve = 0
	} else if reserve > 1 {
		reserve = 1
	}
	if total <= 0 {
		reserve = 1
	}
	per := reserve * budget / float64(n)
	rest := budget - reserve*budget
	for i := range shares {
		shares[i] = per
		if total > 0 && backlogs[i] > 0 {
			shares[i] += rest * backlogs[i] / total
		}
	}
}

// Name implements Allocator.
func (a *ProportionalBacklog) Name() string { return "proportional-backlog" }

// MaxWeight serves the longest queues first: devices are granted up to
// their observed backlog in descending backlog order, and whatever
// budget remains once every backlog is covered is split equally (so
// same-slot arrivals are still served and an idle system behaves like
// EqualSplit). It is work-conserving — capacity is never idled while any
// observed queue is non-empty — the classic throughput-optimal policy.
type MaxWeight struct {
	idx []int // scratch, reused across slots
}

// NewMaxWeight returns a longest-queue-first allocator.
func NewMaxWeight() *MaxWeight { return &MaxWeight{} }

// Allocate implements Allocator.
func (a *MaxWeight) Allocate(_ int, budget float64, backlogs, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	if cap(a.idx) < n {
		a.idx = make([]int, n)
	}
	idx := a.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	// Descending backlog, ties broken by device index for determinism.
	sort.SliceStable(idx, func(x, y int) bool {
		return backlogs[idx[x]] > backlogs[idx[y]]
	})
	remaining := budget
	for i := range shares {
		shares[i] = 0
	}
	for _, i := range idx {
		if remaining <= 0 {
			break
		}
		g := backlogs[i]
		if g < 0 {
			g = 0
		}
		if g > remaining {
			g = remaining
		}
		shares[i] = g
		remaining -= g
	}
	if remaining > 0 {
		per := remaining / float64(n)
		for i := range shares {
			shares[i] += per
		}
	}
}

// Name implements Allocator.
func (a *MaxWeight) Name() string { return "max-weight" }

// wrrCreditSlots caps a device's accumulated deficit credit at this many
// slots' worth of its quantum, bounding how large a burst an idle device
// can later claim.
const wrrCreditSlots = 4

// WeightedRoundRobin is a fluid deficit-round-robin scheduler: each slot
// every device is credited a quantum proportional to its weight, and
// devices are granted min(credit, backlog) in rotating cyclic order. A
// second cyclic pass hands leftover budget to devices with uncovered
// backlog (work conservation), and anything still left splits equally so
// same-slot arrivals are served. Missing or non-positive weights default
// to 1.
type WeightedRoundRobin struct {
	weights []float64
	deficit []float64
	start   int
}

// NewWeightedRoundRobin returns a deficit-round-robin allocator; the
// i-th weight belongs to device i (missing entries weigh 1).
func NewWeightedRoundRobin(weights ...float64) *WeightedRoundRobin {
	return &WeightedRoundRobin{weights: weights}
}

func (a *WeightedRoundRobin) weight(i int) float64 {
	if i < len(a.weights) && a.weights[i] > 0 {
		return a.weights[i]
	}
	return 1
}

// Allocate implements Allocator.
func (a *WeightedRoundRobin) Allocate(_ int, budget float64, backlogs, shares []float64) {
	n := len(shares)
	if n == 0 {
		return
	}
	if len(a.deficit) < n {
		a.deficit = append(a.deficit, make([]float64, n-len(a.deficit))...)
	}
	var sumW float64
	for i := 0; i < n; i++ {
		sumW += a.weight(i)
	}
	for i := 0; i < n; i++ {
		quantum := budget * a.weight(i) / sumW
		a.deficit[i] += quantum
		if maxCredit := wrrCreditSlots * quantum; a.deficit[i] > maxCredit {
			a.deficit[i] = maxCredit
		}
	}
	remaining := budget
	for i := range shares {
		shares[i] = 0
	}
	// Pass 1: grant min(credit, backlog) in rotating cyclic order.
	for k := 0; k < n && remaining > 0; k++ {
		i := (a.start + k) % n
		g := a.deficit[i]
		if q := backlogs[i]; g > q {
			g = q
		}
		if g < 0 {
			g = 0
		}
		if g > remaining {
			g = remaining
		}
		shares[i] = g
		a.deficit[i] -= g
		remaining -= g
	}
	// Pass 2 (work conservation): leftover budget to uncovered backlog,
	// same cyclic order, beyond deficit credit.
	for k := 0; k < n && remaining > 0; k++ {
		i := (a.start + k) % n
		g := backlogs[i] - shares[i]
		if g <= 0 {
			continue
		}
		if g > remaining {
			g = remaining
		}
		shares[i] += g
		remaining -= g
	}
	if remaining > 0 {
		per := remaining / float64(n)
		for i := range shares {
			shares[i] += per
		}
	}
	a.start = (a.start + 1) % n
}

// Name implements Allocator.
func (a *WeightedRoundRobin) Name() string { return "weighted-round-robin" }

// ErrUnknownAllocator reports a ByName lookup miss.
var ErrUnknownAllocator = errors.New("alloc: unknown allocator")

// Extension is a ByName strategy contributed by another package (the
// learned allocators in internal/learn register themselves this way,
// keeping alloc dependency-free). New receives the text after the
// first ':' in the parsed name — "" when absent — and builds a fresh
// allocator per call.
type Extension struct {
	// Usage is the grammar shown in Names and lookup errors, e.g.
	// "bandit[:ARMS]".
	Usage string
	// Canonical is a concrete instantiable spelling used by
	// cross-cutting tests to reach the strategy, e.g. "bandit:8".
	Canonical string
	// New builds the allocator from the optional parameter text.
	New func(param string) (Allocator, error)
}

// extensions maps a lowercase base name to its registered Extension.
var extensions = map[string]Extension{}

// Register installs an Extension under a base name (the part of a
// ByName spec before any ':'). It panics on an empty or duplicate name
// or a nil constructor — registration happens in package init, where
// a panic is a build-time bug, not a runtime condition.
func Register(name string, ext Extension) {
	name = strings.ToLower(name)
	if name == "" || strings.Contains(name, ":") {
		panic(fmt.Sprintf("alloc: invalid extension name %q", name))
	}
	if ext.New == nil {
		panic(fmt.Sprintf("alloc: extension %q has nil constructor", name))
	}
	if _, dup := extensions[name]; dup {
		panic(fmt.Sprintf("alloc: extension %q registered twice", name))
	}
	if _, err := ByName(name); err == nil {
		panic(fmt.Sprintf("alloc: extension %q shadows a built-in name", name))
	}
	extensions[name] = ext
}

// builtinNames lists the built-in strategy names in display order.
var builtinNames = []string{"equal", "proportional", "maxweight", "wrr"}

// Names lists every name ByName accepts: the built-in strategies plus
// each registered extension's usage grammar (sorted, so the list is
// deterministic regardless of registration order).
func Names() []string {
	out := append([]string(nil), builtinNames...)
	exts := make([]string, 0, len(extensions))
	for _, ext := range extensions {
		exts = append(exts, ext.Usage)
	}
	sort.Strings(exts)
	return append(out, exts...)
}

// CanonicalNames lists one concrete instantiable spelling per strategy
// reachable through ByName — built-ins verbatim, extensions via their
// Canonical example. Cross-cutting tests iterate this to cover every
// allocator the CLI surface can construct.
//
//qarv:allow unreached (b) test enumerator: allocator and learner tests in several packages iterate every name ByName builds
func CanonicalNames() []string {
	out := append([]string(nil), builtinNames...)
	exts := make([]string, 0, len(extensions))
	for _, ext := range extensions {
		exts = append(exts, ext.Canonical)
	}
	sort.Strings(exts)
	return append(out, exts...)
}

// ByName builds a fresh allocator from a CLI-friendly spec. Built-in
// names are bare ("equal", "proportional", "maxweight", "wrr");
// registered extensions may carry a parameter after a colon, e.g.
// "bandit:8" or "gradient:0.25". Lookup errors enumerate every valid
// name.
func ByName(name string) (Allocator, error) {
	base, param, hasParam := strings.Cut(name, ":")
	switch strings.ToLower(base) {
	case "equal", "equal-split":
		if !hasParam {
			return EqualSplit{}, nil
		}
	case "proportional", "prop", "proportional-backlog":
		if !hasParam {
			return &ProportionalBacklog{}, nil
		}
	case "maxweight", "max-weight":
		if !hasParam {
			return NewMaxWeight(), nil
		}
	case "wrr", "weighted-round-robin":
		if !hasParam {
			return NewWeightedRoundRobin(), nil
		}
	default:
		if ext, ok := extensions[strings.ToLower(base)]; ok {
			a, err := ext.New(param)
			if err != nil {
				return nil, fmt.Errorf("alloc: %s: %w", base, err)
			}
			return a, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (want one of %s)", ErrUnknownAllocator, name, strings.Join(Names(), ", "))
}
