package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zaatar/internal/obs/trace"
)

// clientProc tags every span recorded on the client side of the wire: the
// benchmark's own spans and, because they inherit the trace context the
// benchmark attaches, the verifier-side spans of the library. Spans a
// server records and ships back are tagged "prover".
const clientProc = "bench"

// Root span names: one tree per timed batch and one per session open.
const (
	spanBatch = "bench.batch"
	spanDial  = "bench.dial"
)

// sessionLevel spans outlive the batches of their session, so their
// children are re-attached by time to the batch that contains them.
var sessionLevel = map[string]bool{
	"transport.session": true, // client session, open until Close
	"transport.serve":   true, // server session, ended before its first batch
}

// containTol absorbs wall-clock skew when a record lies just outside every
// root (records carry wall-clock starts and monotonic lengths). It applies
// only to roots, which are long: matching a short span under a loose
// tolerance could pick a neighbour instead of a true container.
const containTol = int64(time.Millisecond)

type node struct {
	rec      trace.Record
	end      int64
	parent   *node
	children []*node
	self     int64 // span length minus the part its children cover
}

func (n *node) label() string {
	if n.rec.Proc == clientProc || n.rec.Proc == "" {
		return n.rec.Name
	}
	return n.rec.Name + "@" + n.rec.Proc
}

func (n *node) contains(c *node, tol int64) bool {
	return n.rec.Start <= c.rec.Start+tol && c.end <= n.end+tol
}

// forest is the set of per-batch (and per-dial) trees built from one run's
// records, plus any parent/child pair whose child outlasts its parent.
type forest struct {
	roots      []*node
	violations []string
}

// buildForest links records into trees rooted at the benchmark's
// bench.batch and bench.dial spans. A record keeps its own parent unless
// that parent is missing or session-level; such a record is re-attached to
// the innermost span that contains it in time — a client-side record only
// to a root, a server-side record to any client-side span (failing that, a
// root), which is how server spans shipped back over the wire are stitched
// under the batch that caused them. Session-level records and records
// outside every root are left out.
func buildForest(recs []trace.Record) *forest {
	nodes := make([]*node, len(recs))
	byID := make(map[trace.SpanID]*node, len(recs))
	var roots, client []*node
	for i := range recs {
		n := &node{rec: recs[i], end: recs[i].Start + recs[i].Dur}
		nodes[i] = n
		byID[n.rec.Span] = n
		switch {
		case n.rec.Proc != clientProc:
		case n.rec.Name == spanBatch || n.rec.Name == spanDial:
			roots = append(roots, n)
			client = append(client, n)
		case !sessionLevel[n.rec.Name]:
			client = append(client, n)
		}
	}
	innermost := func(n *node, cands []*node, tol int64) *node {
		var best *node
		for _, c := range cands {
			if c != n && c.contains(n, tol) && (best == nil || c.rec.Dur < best.rec.Dur) {
				best = c
			}
		}
		return best
	}
	for _, n := range nodes {
		if sessionLevel[n.rec.Name] || (n.rec.Proc == clientProc && (n.rec.Name == spanBatch || n.rec.Name == spanDial)) {
			continue
		}
		p := byID[n.rec.Parent]
		if p == nil || sessionLevel[p.rec.Name] {
			p = nil
			if n.rec.Proc != clientProc {
				p = innermost(n, client, 0)
			}
			if p == nil {
				p = innermost(n, roots, containTol)
			}
		}
		if p != nil {
			n.parent = p
			p.children = append(p.children, n)
		}
	}
	f := &forest{}
	sort.Slice(roots, func(i, j int) bool { return roots[i].rec.Start < roots[j].rec.Start })
	f.roots = roots
	for _, r := range roots {
		walk(r, func(n *node) {
			n.self = n.rec.Dur - covered(n.rec.Start, n.end, n.children)
			for _, c := range n.children {
				if c.rec.Dur > n.rec.Dur {
					f.violations = append(f.violations, fmt.Sprintf("%s (%v) outlasts parent %s (%v)",
						c.label(), time.Duration(c.rec.Dur), n.label(), time.Duration(n.rec.Dur)))
				}
			}
		})
	}
	return f
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []*node) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.rec.Start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

func walk(n *node, fn func(*node)) {
	fn(n)
	for _, c := range n.children {
		walk(c, fn)
	}
}

// batches returns the bench.batch trees.
func (f *forest) batches() []*node {
	var out []*node
	for _, r := range f.roots {
		if r.rec.Name == spanBatch {
			out = append(out, r)
		}
	}
	return out
}

// sum adds the lengths of the spans named name recorded by proc ("" for
// either side) across the given trees.
func sum(roots []*node, proc, name string) time.Duration {
	var d int64
	for _, r := range roots {
		walk(r, func(n *node) {
			if n.rec.Name == name && (proc == "" || n.rec.Proc == proc) {
				d += n.rec.Dur
			}
		})
	}
	return time.Duration(d)
}

// find collects the spans in root's tree that match.
func find(root *node, match func(*node) bool) []*node {
	var out []*node
	walk(root, func(n *node) {
		if n != root && match(n) {
			out = append(out, n)
		}
	})
	return out
}

// share is one line of the attribution table: a path of span labels from
// a root and its summed self time.
type share struct {
	path string
	self time.Duration
}

// attribution aggregates self time by path across the trees. Shares of
// children that ran in parallel can sum to more than their parent's wall.
func attribution(roots []*node) []share {
	agg := map[string]*share{}
	var visit func(n *node, prefix string)
	visit = func(n *node, prefix string) {
		path := n.label()
		if prefix != "" {
			path = prefix + "/" + path
		}
		s := agg[path]
		if s == nil {
			s = &share{path: path}
			agg[path] = s
		}
		s.self += time.Duration(n.self)
		for _, c := range n.children {
			visit(c, path)
		}
	}
	for _, r := range roots {
		visit(r, "")
	}
	out := make([]share, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].path < out[j].path
	})
	return out
}

// shortPath drops the root label for display.
func shortPath(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return "(self)"
}
