package telemetry

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// FuzzTraceRecord drives a fuzzed sequence of span operations on one trace,
// files it with Finish and holds what Get decodes to the reference
// rendering, Snapshot: names, IDs, order, typed attributes, events and the
// durations of ended spans exactly, while spans still open at Finish
// report a duration between zero and the reference's later reading.
// Mutating every span after Finish must not change what Get returns.
//
// ops is read in pairs (op, arg); arg picks the target span, the name, the
// key and the value. text is one more name, key and string value, and the
// remote parent's IDs when ops[0] asks for a remote root with text IDs.
// The seed corpus is checked in under testdata/fuzz/FuzzTraceRecord.
func FuzzTraceRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var root *Span
		switch {
		case len(ops) == 0 || ops[0]%3 == 0:
			root = NewTrace("analyze")
		case ops[0]%3 == 1:
			root = NewRemoteTrace("cluster.evaluate", NewSpanContext())
		default:
			// IDs that are not hex, as a caller can hand NewRemoteTrace.
			root = NewRemoteTrace("cluster.evaluate", SpanContext{TraceID: "t" + text, SpanID: text})
		}
		names := []string{"", "solve.kiter", "round.1", text}
		spans := []*Span{root}
		ended := map[*Span]bool{}
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			s := spans[int(arg)%len(spans)]
			name := names[int(arg>>2)%len(names)]
			key := names[int(arg>>4)%len(names)]
			switch op % 8 {
			case 0:
				_, c := StartSpan(ContextWithSpan(context.Background(), s), name)
				spans = append(spans, c)
			case 1:
				// Leaf phases may start before their parent.
				at := time.Now().Add(time.Duration(int(arg)-128) * time.Millisecond)
				s.Record(name, at, time.Duration(arg)*time.Microsecond)
			case 2:
				s.SetString(key, name)
			case 3:
				s.SetInt(key, int64(int8(arg))<<40)
			case 4:
				s.SetBool(key, arg&1 == 1)
			case 5:
				s.AddInt(key, int64(arg)-100)
			case 6:
				s.Event(name, key, name, "i", int(arg), "n", int64(arg)<<33, "b", arg&1 == 1,
					"f", float64(arg)/4, 7, "non-string key: skipped")
			case 7:
				s.End()
				ended[s] = true
			}
		}

		r := NewRecorder(8)
		r.Finish(root, "/fuzz", "p", "req", 200)
		want := root.Snapshot()
		open := map[string]bool{}
		for _, s := range spans[1:] {
			if !ended[s] {
				open[s.Context().SpanID] = true
			}
		}
		recs := r.Get(root.Context().TraceID)
		if len(recs) != 1 {
			t.Fatalf("Get returned %d records, want 1", len(recs))
		}
		got := recs[0].Root
		if recs[0].StartUnixNano != want.StartUnixNano || recs[0].DurMS != want.DurMS {
			t.Fatalf("record start %d, dur %g; root start %d, dur %g",
				recs[0].StartUnixNano, recs[0].DurMS, want.StartUnixNano, want.DurMS)
		}
		sameTree(t, "root", got, want, open)

		for _, s := range spans {
			s.SetString(text, "late")
			s.AddInt("late", 1)
			s.Record("late", time.Now(), time.Millisecond)
			s.Event("late", "k", "v")
			StartSpan(ContextWithSpan(context.Background(), s), "late")
			s.End()
		}
		again := r.Get(root.Context().TraceID)
		if len(again) != 1 || !reflect.DeepEqual(again[0].Root, got) {
			t.Fatal("spans mutated after Finish changed the retained trace")
		}
	})
}

// sameTree compares a decoded tree with the reference rendering. The
// durations of spans whose IDs are in open were read at Finish in got and
// later in want.
func sameTree(t *testing.T, path string, got, want *SpanNode, open map[string]bool) {
	t.Helper()
	if got.Name != want.Name || got.TraceID != want.TraceID || got.SpanID != want.SpanID ||
		got.ParentID != want.ParentID || got.StartUnixNano != want.StartUnixNano {
		t.Fatalf("%s: got %+v, want %+v", path, got, want)
	}
	if want.SpanID != "" && open[want.SpanID] {
		if got.DurMS < 0 || got.DurMS > want.DurMS {
			t.Fatalf("%s: open span reports %g ms at Finish, %g ms later", path, got.DurMS, want.DurMS)
		}
	} else if got.DurMS != want.DurMS {
		t.Fatalf("%s: duration %g ms, want %g ms", path, got.DurMS, want.DurMS)
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Fatalf("%s: attrs %#v, want %#v", path, got.Attrs, want.Attrs)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: events %#v, want %#v", path, got.Events, want.Events)
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("%s: %d children, want %d", path, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		sameTree(t, path+"/"+want.Children[i].Name, got.Children[i], want.Children[i], open)
	}
}
