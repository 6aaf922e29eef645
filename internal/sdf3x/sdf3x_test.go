package sdf3x_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
	"kiter/internal/kperiodic"
	"kiter/internal/sdf3x"
)

func graphsEqual(t *testing.T, a, b *csdf.Graph) {
	t.Helper()
	if a.NumTasks() != b.NumTasks() || a.NumBuffers() != b.NumBuffers() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumTasks(), a.NumBuffers(), b.NumTasks(), b.NumBuffers())
	}
	for i := 0; i < a.NumTasks(); i++ {
		ta, tb := a.Task(csdf.TaskID(i)), b.Task(csdf.TaskID(i))
		if len(ta.Durations) != len(tb.Durations) {
			t.Fatalf("task %d: phases %d vs %d", i, len(ta.Durations), len(tb.Durations))
		}
		for p := range ta.Durations {
			if ta.Durations[p] != tb.Durations[p] {
				t.Fatalf("task %d phase %d: %d vs %d", i, p, ta.Durations[p], tb.Durations[p])
			}
		}
	}
	for i := 0; i < a.NumBuffers(); i++ {
		ba, bb := a.Buffer(csdf.BufferID(i)), b.Buffer(csdf.BufferID(i))
		if ba.Src != bb.Src || ba.Dst != bb.Dst || ba.Initial != bb.Initial || ba.Capacity != bb.Capacity {
			t.Fatalf("buffer %d differs: %+v vs %+v", i, ba, bb)
		}
		for p := range ba.In {
			if ba.In[p] != bb.In[p] {
				t.Fatalf("buffer %d In[%d]", i, p)
			}
		}
		for p := range ba.Out {
			if ba.Out[p] != bb.Out[p] {
				t.Fatalf("buffer %d Out[%d]", i, p)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := gen.Figure2()
	g.SetCapacity(0, 42)
	var buf bytes.Buffer
	if err := sdf3x.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := sdf3x.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, back)
}

func TestXMLRoundTrip(t *testing.T) {
	g := gen.Figure2()
	g.SetCapacity(2, 17)
	var buf bytes.Buffer
	if err := sdf3x.WriteXML(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "applicationGraph") {
		t.Error("missing SDF3 structure")
	}
	back, err := sdf3x.ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, back)
}

func TestRoundTripPreservesThroughput(t *testing.T) {
	g := gen.Figure2()
	want, err := kperiodic.KIter(g, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sdf3x.WriteXML(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := sdf3x.ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kperiodic.KIter(back, kperiodic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Period.Cmp(want.Period) != 0 {
		t.Errorf("round-trip changed Ω: %s vs %s", got.Period, want.Period)
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.MultiRateCycle()
	for _, name := range []string{"g.json", "g.xml"} {
		path := filepath.Join(dir, name)
		if err := sdf3x.WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := sdf3x.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphsEqual(t, g, back.Graph())
	}
	if err := sdf3x.WriteFile(filepath.Join(dir, "g.txt"), g); err == nil {
		t.Error("unknown extension accepted for write")
	}
	if _, err := sdf3x.ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	os.WriteFile(filepath.Join(dir, "g.yaml"), []byte("x"), 0o644)
	if _, err := sdf3x.ReadFile(filepath.Join(dir, "g.yaml")); err == nil {
		t.Error("unknown extension accepted for read")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","tasks":[{"name":"a","durations":[1]},{"name":"a","durations":[1]}]}`,
		`{"name":"x","tasks":[{"name":"a","durations":[1]}],"buffers":[{"src":"a","dst":"zzz","in":[1],"out":[1]}]}`,
		`{"name":"x","tasks":[{"name":"a","durations":[1]}],"buffers":[{"src":"zzz","dst":"a","in":[1],"out":[1]}]}`,
		// Validation failure: rate length mismatch.
		`{"name":"x","tasks":[{"name":"a","durations":[1]},{"name":"b","durations":[1]}],"buffers":[{"src":"a","dst":"b","in":[1,2],"out":[1]}]}`,
		// Trailing data after a valid graph.
		`{"name":"x","tasks":[{"name":"a","durations":[1]}]} trailing garbage`,
		`{"name":"x","tasks":[{"name":"a","durations":[1]}]}}`,
	}
	for i, c := range cases {
		if _, err := sdf3x.ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad JSON accepted", i)
		}
	}
}

func TestReadXMLErrors(t *testing.T) {
	cases := []string{
		`<sdf3`,
		`<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
		   <actor name="a"/><actor name="a"/></csdf></applicationGraph></sdf3>`,
		`<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
		   <actor name="a"><port name="p" type="out" rate="x"/></actor>
		 </csdf></applicationGraph></sdf3>`,
		`<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
		   <actor name="a"><port name="p" type="out" rate="1"/></actor>
		   <channel name="c" srcActor="a" srcPort="p" dstActor="zz" dstPort="q" initialTokens="0"/>
		 </csdf></applicationGraph></sdf3>`,
		`<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
		   <actor name="a"><port name="p" type="out" rate="1"/></actor>
		   <channel name="c" srcActor="a" srcPort="nope" dstActor="a" dstPort="p" initialTokens="0"/>
		 </csdf></applicationGraph></sdf3>`,
	}
	for i, c := range cases {
		if _, err := sdf3x.ReadXML(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad XML accepted", i)
		}
	}
}

func TestXMLScalarRateExpansion(t *testing.T) {
	// An SDF-style scalar rate on a CSDF actor expands across phases.
	doc := `<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
	  <actor name="a"><port name="o" type="out" rate="2"/></actor>
	  <actor name="b"><port name="i" type="in" rate="1,3"/></actor>
	  <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i" initialTokens="0"/>
	</csdf><csdfProperties>
	  <actorProperties actor="a"><processor type="p" default="true"><executionTime time="1,1,1"/></processor></actorProperties>
	  <actorProperties actor="b"><processor type="p" default="true"><executionTime time="2,2"/></processor></actorProperties>
	</csdfProperties></applicationGraph></sdf3>`
	g, err := sdf3x.ReadXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	b := g.Buffer(0)
	if len(b.In) != 3 || b.In[0] != 2 || b.In[2] != 2 {
		t.Errorf("In = %v, want [2 2 2]", b.In)
	}
	if len(b.Out) != 2 || b.Out[1] != 3 {
		t.Errorf("Out = %v, want [1 3]", b.Out)
	}
}

func TestXMLDefaultDurations(t *testing.T) {
	// Actors without properties default to unit-duration phases.
	doc := `<sdf3 type="csdf"><applicationGraph name="g"><csdf name="g">
	  <actor name="a"><port name="o" type="out" rate="1,2"/></actor>
	  <actor name="b"><port name="i" type="in" rate="3"/></actor>
	  <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i" initialTokens="0"/>
	</csdf></applicationGraph></sdf3>`
	g, err := sdf3x.ReadXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.Task(0).Phases() != 2 || g.Task(0).Durations[0] != 1 {
		t.Errorf("default durations = %v", g.Task(0).Durations)
	}
}
