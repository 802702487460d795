package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// usOf converts a span offset to Chrome's native microsecond unit,
// keeping sub-microsecond resolution as a fraction.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// argsOf renders span attributes as a JSON object; encoding/json sorts map
// keys, so the output is deterministic regardless of attribute order.
func argsOf(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// chromeEvent is one entry of the trace_event JSON format understood by
// chrome://tracing and Perfetto (legacy JSON import).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Formats lists the export formats WriteFormat accepts.
var Formats = []string{"chrome", "jsonl", "text"}

// WriteFormat exports the trace in the named format, one of Formats:
// "chrome" (WriteChrome), "jsonl" (WriteJSONL) or "text" (WriteText).
func (t *Trace) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "chrome":
		return t.WriteChrome(w)
	case "jsonl":
		return t.WriteJSONL(w)
	case "text":
		return t.WriteText(w)
	}
	return fmt.Errorf("obs: unknown trace format %q (want one of %v)", format, Formats)
}

// WriteChrome exports the trace as Chrome trace_event JSON — load the file
// in chrome://tracing or ui.perfetto.dev. Spans become complete ("X")
// events, instant events "i" markers, and every counter/gauge one final
// counter ("C") sample at the trace's last timestamp. A nil trace writes
// an empty-but-valid document.
func (t *Trace) WriteChrome(w io.Writer) error {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	spans := t.Snapshot()
	var last time.Duration
	for i := range spans {
		s := &spans[i]
		if s.Stop > last {
			last = s.Stop
		}
		ev := chromeEvent{
			Name: s.Name, Cat: "ataqc", Ts: usOf(s.Start),
			Pid: 1, Tid: s.Lane, Args: argsOf(s.Attrs),
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			d := usOf(s.Stop - s.Start)
			ev.Dur = &d
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	if t != nil {
		m := t.Metrics().Snapshot()
		for _, name := range m.CounterNames() {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Cat: "ataqc", Phase: "C", Ts: usOf(last), Pid: 1,
				Args: map[string]any{"value": m.Counters[name]},
			})
		}
		for _, name := range m.GaugeNames() {
			g := m.Gauges[name]
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Cat: "ataqc", Phase: "C", Ts: usOf(last), Pid: 1,
				Args: map[string]any{"value": g.Value, "max": g.Max},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// jsonlRecord is one line of the flat event log. Type is "span", "event",
// "counter", "gauge", or "hist"; unused fields are omitted.
type jsonlRecord struct {
	Type    string             `json:"type"`
	ID      int                `json:"id,omitempty"`
	Parent  int                `json:"parent,omitempty"`
	Lane    int                `json:"lane,omitempty"`
	Name    string             `json:"name"`
	StartUs float64            `json:"startUs,omitempty"`
	DurUs   float64            `json:"durUs,omitempty"`
	Attrs   map[string]any     `json:"attrs,omitempty"`
	Value   int64              `json:"value,omitempty"`
	Max     int64              `json:"max,omitempty"`
	Hist    *HistogramSnapshot `json:"hist,omitempty"`
}

// WriteJSONL exports the trace as a flat JSONL event log: one
// self-describing JSON object per line — spans and events in creation
// order, then every metric. The shape is shared with `ataqc-lint -json`
// findings: line-oriented JSON that CI annotations can consume uniformly.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Snapshot() {
		rec := jsonlRecord{
			ID: s.ID, Parent: s.Parent, Lane: s.Lane, Name: s.Name,
			StartUs: usOf(s.Start), Attrs: argsOf(s.Attrs),
		}
		if s.Instant {
			rec.Type = "event"
		} else {
			rec.Type = "span"
			rec.DurUs = usOf(s.Stop - s.Start)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if t == nil {
		return nil
	}
	m := t.Metrics().Snapshot()
	for _, name := range m.CounterNames() {
		if err := enc.Encode(jsonlRecord{Type: "counter", Name: name, Value: m.Counters[name]}); err != nil {
			return err
		}
	}
	for _, name := range m.GaugeNames() {
		g := m.Gauges[name]
		if err := enc.Encode(jsonlRecord{Type: "gauge", Name: name, Value: g.Value, Max: g.Max}); err != nil {
			return err
		}
	}
	for _, name := range m.HistogramNames() {
		h := m.Histograms[name]
		if err := enc.Encode(jsonlRecord{Type: "hist", Name: name, Hist: &h}); err != nil {
			return err
		}
	}
	return nil
}

// WriteText exports the trace as a human-readable summary: the span tree
// indented by nesting with durations and attributes, then the metrics.
func (t *Trace) WriteText(w io.Writer) error {
	spans := t.Snapshot()
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var b strings.Builder
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, i := range children[parent] {
			s := &spans[i]
			b.WriteString(strings.Repeat("  ", depth))
			if s.Instant {
				fmt.Fprintf(&b, "@ %s (t=%s)", s.Name, s.Start)
			} else {
				fmt.Fprintf(&b, "%s %s", s.Name, s.Stop-s.Start)
			}
			for _, a := range s.Attrs {
				fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
			}
			if s.Lane != 0 {
				fmt.Fprintf(&b, " lane=%d", s.Lane)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	if t != nil {
		m := t.Metrics().Snapshot()
		if len(m.Counters)+len(m.Gauges)+len(m.Histograms) > 0 {
			b.WriteString("metrics:\n")
		}
		for _, name := range m.CounterNames() {
			fmt.Fprintf(&b, "  counter %s = %d\n", name, m.Counters[name])
		}
		for _, name := range m.GaugeNames() {
			g := m.Gauges[name]
			fmt.Fprintf(&b, "  gauge %s = %d (max %d)\n", name, g.Value, g.Max)
		}
		for _, name := range m.HistogramNames() {
			h := m.Histograms[name]
			fmt.Fprintf(&b, "  hist %s: count=%d sum=%d", name, h.Count, h.Sum)
			for _, bc := range h.Buckets {
				if bc.Upper < 0 {
					fmt.Fprintf(&b, " <=inf:%d", bc.Count)
				} else {
					fmt.Fprintf(&b, " <=%d:%d", bc.Upper, bc.Count)
				}
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
