package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Times are offsets from the
// tracer's origin; parent is the index of the enclosing span (-1 for the
// root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. Spans nest strictly: the
// traced run is single-threaded, so every span's children lie inside it and
// do not overlap, and a span's self time is its length minus its
// children's. Only the benchmark's own calls into the layers are spanned;
// the program runs untouched.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(root string) *tracer {
	t := &tracer{t0: time.Now()}
	t.begin(root)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span and returns its length.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
	return t.spans[i].End - t.spans[i].Start
}

// do runs fn inside a span and returns fn's error.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// at records a closed span under parent from wall-clock times observed
// elsewhere: graspd's job timestamps, taken on the same host's clock.
func (t *tracer) at(parent int, name string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// finish closes every open span, the root last.
func (t *tracer) finish() {
	for len(t.open) > 0 {
		t.end()
	}
}

// selfTimes returns each span's length minus the lengths of its direct
// children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerStats sums self time and counts spans per layer. The root span's
// self time is the traced time no layer span covers; it is reported under
// the root's name.
type layerStat struct {
	Self  time.Duration
	Count int
}

func layerStats(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := make(map[string]layerStat)
	for i, s := range spans {
		st := out[layerOf(s.Name)]
		st.Self += self[i]
		st.Count++
		out[layerOf(s.Name)] = st
	}
	return out
}

// nameSelf sums the self time of spans whose name equals or starts with
// prefix (so "reorder.gorder" matches "reorder.gorder" only, and "reorder"
// the whole layer).
func nameSelf(spans []span, prefix string) time.Duration {
	self := selfTimes(spans)
	var d time.Duration
	for i, s := range spans {
		if s.Name == prefix || strings.HasPrefix(s.Name, prefix+".") {
			d += self[i]
		}
	}
	return d
}

// layerNames returns the layers in a stable order.
func layerNames(st map[string]layerStat) []string {
	var out []string
	for l := range st {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
