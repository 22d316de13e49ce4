package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Node is the JSON-ready rendering of one recorded span. Tree assembles
// the span log into a forest of Nodes; serve embeds it in traced
// responses and the CLI renders it with WriteTable / WriteSummary.
type Node struct {
	Name       string           `json:"name"`
	DurationMS float64          `json:"duration_ms"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*Node          `json:"children,omitempty"`
}

// Tree snapshots the trace into a forest of Nodes. Children appear in
// recording order (concurrent recorders make that order non-deterministic
// — see the package comment); roots likewise. Safe to call while spans
// are still being recorded: the snapshot reflects the log at call time.
func (t *Trace) Tree() []*Node {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	nodes := make([]*Node, len(spans))
	for i, sp := range spans {
		n := &Node{Name: sp.name, DurationMS: float64(sp.dur) / float64(time.Millisecond)}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]int64, len(sp.attrs))
			for _, a := range sp.attrs {
				n.Attrs[a.Key] = a.Val
			}
		}
		nodes[i] = n
	}
	var roots []*Node
	for i, sp := range spans {
		if sp.parent < 0 {
			roots = append(roots, nodes[i])
		} else {
			p := nodes[sp.parent]
			p.Children = append(p.Children, nodes[i])
		}
	}
	return roots
}

// RootDurationMS sums the root spans' durations — the traced fraction of
// the request or run the forest describes. Roots are sequential phases
// of one caller, so the sum is bounded by the caller's wall time.
func RootDurationMS(nodes []*Node) float64 {
	var total float64
	for _, n := range nodes {
		total += n.DurationMS
	}
	return total
}

// WriteTable renders the forest as an indented phase table:
//
//	12.345ms  solve  shards=4 warm_reused=2
//	 1.200ms    decompose  components=16
//
// Durations lead so the eye can scan the column; attributes are sorted
// by key for stable output.
func WriteTable(w io.Writer, nodes []*Node) {
	for _, n := range nodes {
		writeNode(w, n, 0)
	}
}

func writeNode(w io.Writer, n *Node, depth int) {
	fmt.Fprintf(w, "%12.3fms  %*s%s%s\n", n.DurationMS, 2*depth, "", n.Name, attrSuffix(n.Attrs))
	for _, c := range n.Children {
		writeNode(w, c, depth+1)
	}
}

func attrSuffix(attrs map[string]int64) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := " "
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, attrs[k])
	}
	return s
}

// PhaseStat aggregates every span sharing a phase path ("solve/component/
// greedy") across the forest: how often the phase ran and its total wall
// time. Aggregation is what makes a many-solve run (a figure sweep, a
// sharded fleet) readable, and — unlike sibling order — it is
// deterministic for a deterministic workload.
type PhaseStat struct {
	Path    string
	Count   int64
	TotalMS float64
}

// Aggregate folds the forest into per-path phase statistics, ordered by
// first appearance of each path in a depth-first walk.
func Aggregate(nodes []*Node) []PhaseStat {
	index := make(map[string]int)
	var stats []PhaseStat
	var walk func(prefix string, ns []*Node)
	walk = func(prefix string, ns []*Node) {
		for _, n := range ns {
			path := n.Name
			if prefix != "" {
				path = prefix + "/" + n.Name
			}
			i, ok := index[path]
			if !ok {
				i = len(stats)
				index[path] = i
				stats = append(stats, PhaseStat{Path: path})
			}
			stats[i].Count++
			stats[i].TotalMS += n.DurationMS
			walk(path, n.Children)
		}
	}
	walk("", nodes)
	return stats
}

// WriteSummary renders Aggregate's phase statistics as a table of path,
// call count, total and mean wall time.
func WriteSummary(w io.Writer, nodes []*Node) {
	stats := Aggregate(nodes)
	width := len("phase")
	for _, st := range stats {
		if len(st.Path) > width {
			width = len(st.Path)
		}
	}
	fmt.Fprintf(w, "%-*s  %8s  %12s  %12s\n", width, "phase", "count", "total", "mean")
	for _, st := range stats {
		mean := 0.0
		if st.Count > 0 {
			mean = st.TotalMS / float64(st.Count)
		}
		fmt.Fprintf(w, "%-*s  %8d  %10.3fms  %10.3fms\n", width, st.Path, st.Count, st.TotalMS, mean)
	}
}
