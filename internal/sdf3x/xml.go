package sdf3x

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kiter/internal/csdf"
)

// The XML dialect follows the SDF3 application-graph shape: actors own
// typed ports with (cyclo-static) rates, channels connect ports, and
// execution times live in a properties section.
//
//	<sdf3 type="csdf">
//	  <applicationGraph name="g">
//	    <csdf name="g">
//	      <actor name="A"><port type="out" name="p0" rate="3,5"/></actor>
//	      <channel name="b" srcActor="A" srcPort="p0"
//	               dstActor="B" dstPort="p1" initialTokens="0" size="8"/>
//	    </csdf>
//	    <csdfProperties>
//	      <actorProperties actor="A">
//	        <processor type="p0" default="true">
//	          <executionTime time="1,1"/>
//	        </processor>
//	      </actorProperties>
//	    </csdfProperties>
//	  </applicationGraph>
//	</sdf3>

type xmlSDF3 struct {
	XMLName xml.Name    `xml:"sdf3"`
	Type    string      `xml:"type,attr"`
	App     xmlAppGraph `xml:"applicationGraph"`
}

type xmlAppGraph struct {
	Name  string        `xml:"name,attr"`
	CSDF  xmlCSDF       `xml:"csdf"`
	Props xmlProperties `xml:"csdfProperties"`
}

type xmlCSDF struct {
	Name     string       `xml:"name,attr"`
	Actors   []xmlActor   `xml:"actor"`
	Channels []xmlChannel `xml:"channel"`
}

type xmlActor struct {
	Name  string    `xml:"name,attr"`
	Ports []xmlPort `xml:"port"`
}

type xmlPort struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"` // "in" | "out"
	Rate string `xml:"rate,attr"` // comma-separated per phase
}

type xmlChannel struct {
	Name          string `xml:"name,attr"`
	SrcActor      string `xml:"srcActor,attr"`
	SrcPort       string `xml:"srcPort,attr"`
	DstActor      string `xml:"dstActor,attr"`
	DstPort       string `xml:"dstPort,attr"`
	InitialTokens int64  `xml:"initialTokens,attr"`
	Size          int64  `xml:"size,attr,omitempty"`
}

type xmlProperties struct {
	Actors []xmlActorProps `xml:"actorProperties"`
}

type xmlActorProps struct {
	Actor     string       `xml:"actor,attr"`
	Processor xmlProcessor `xml:"processor"`
}

type xmlProcessor struct {
	Type    string  `xml:"type,attr"`
	Default bool    `xml:"default,attr"`
	Exec    xmlExec `xml:"executionTime"`
}

type xmlExec struct {
	Time string `xml:"time,attr"`
}

// WriteXML marshals g in the SDF3-flavoured dialect.
func WriteXML(w io.Writer, g *csdf.Graph) error {
	tn := resolveNames(g)
	defer tn.release()
	names := tn.of
	doc := xmlSDF3{Type: "csdf"}
	doc.App.Name = g.Name
	doc.App.CSDF.Name = g.Name
	actors := make([]xmlActor, g.NumTasks())
	for _, t := range g.Tasks() {
		actors[t.ID] = xmlActor{Name: names[t.ID]}
		doc.App.Props.Actors = append(doc.App.Props.Actors, xmlActorProps{
			Actor: names[t.ID],
			Processor: xmlProcessor{
				Type: "proc_0", Default: true,
				Exec: xmlExec{Time: rateString(t.Durations)},
			},
		})
	}
	for i, b := range g.Buffers() {
		srcPort := fmt.Sprintf("out%d", i)
		dstPort := fmt.Sprintf("in%d", i)
		actors[b.Src].Ports = append(actors[b.Src].Ports, xmlPort{
			Name: srcPort, Type: "out", Rate: rateString(b.In),
		})
		actors[b.Dst].Ports = append(actors[b.Dst].Ports, xmlPort{
			Name: dstPort, Type: "in", Rate: rateString(b.Out),
		})
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("ch%d", i)
		}
		doc.App.CSDF.Channels = append(doc.App.CSDF.Channels, xmlChannel{
			Name: name, SrcActor: names[b.Src], SrcPort: srcPort,
			DstActor: names[b.Dst], DstPort: dstPort,
			InitialTokens: b.Initial, Size: b.Capacity,
		})
	}
	doc.App.CSDF.Actors = actors
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ReadXML unmarshals the SDF3-flavoured dialect and validates the graph.
func ReadXML(r io.Reader) (*csdf.Graph, error) {
	f, err := readXML(r)
	return f.Graph(), err
}

// readXML is ReadXML returning the facts of the graph it validated.
func readXML(r io.Reader) (*csdf.Facts, error) {
	var doc xmlSDF3
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("sdf3x: decoding XML: %w", err)
	}
	name := doc.App.CSDF.Name
	if name == "" {
		name = doc.App.Name
	}
	g := csdf.NewGraph(name)
	// Execution times per actor name.
	durs := map[string][]int64{}
	for _, ap := range doc.App.Props.Actors {
		d, err := parseRates(ap.Processor.Exec.Time)
		if err != nil {
			return nil, fmt.Errorf("sdf3x: actor %q execution time: %w", ap.Actor, err)
		}
		durs[ap.Actor] = d
	}
	ids := map[string]csdf.TaskID{}
	ports := map[string][]int64{} // "actor/port" → rates
	for _, a := range doc.App.CSDF.Actors {
		d, ok := durs[a.Name]
		if !ok {
			// Default: as many unit phases as the longest port rate.
			n := 1
			for _, p := range a.Ports {
				if c := strings.Count(p.Rate, ",") + 1; c > n {
					n = c
				}
			}
			d = make([]int64, n)
			for i := range d {
				d[i] = 1
			}
		}
		if _, dup := ids[a.Name]; dup {
			return nil, fmt.Errorf("sdf3x: duplicate actor %q", a.Name)
		}
		ids[a.Name] = g.AddTask(a.Name, d)
		for _, p := range a.Ports {
			rates, err := parseRates(p.Rate)
			if err != nil {
				return nil, fmt.Errorf("sdf3x: port %s/%s: %w", a.Name, p.Name, err)
			}
			ports[a.Name+"/"+p.Name] = rates
		}
	}
	for _, ch := range doc.App.CSDF.Channels {
		src, ok := ids[ch.SrcActor]
		if !ok {
			return nil, fmt.Errorf("sdf3x: channel %q: unknown actor %q", ch.Name, ch.SrcActor)
		}
		dst, ok := ids[ch.DstActor]
		if !ok {
			return nil, fmt.Errorf("sdf3x: channel %q: unknown actor %q", ch.Name, ch.DstActor)
		}
		in, ok := ports[ch.SrcActor+"/"+ch.SrcPort]
		if !ok {
			return nil, fmt.Errorf("sdf3x: channel %q: unknown port %q", ch.Name, ch.SrcPort)
		}
		out, ok := ports[ch.DstActor+"/"+ch.DstPort]
		if !ok {
			return nil, fmt.Errorf("sdf3x: channel %q: unknown port %q", ch.Name, ch.DstPort)
		}
		in = expandRates(in, g.Task(src).Phases())
		out = expandRates(out, g.Task(dst).Phases())
		id := g.AddBuffer(ch.Name, src, dst, in, out, ch.InitialTokens)
		if ch.Size > 0 {
			g.SetCapacity(id, ch.Size)
		}
	}
	return csdf.NewFacts(g)
}

func rateString(v []int64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatInt(x, 10)
	}
	return strings.Join(parts, ",")
}

func parseRates(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty rate")
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// expandRates repeats a scalar rate across phases (SDF ports on CSDF
// actors, an SDF3 convention); any other length mismatch is left for
// Validate to report.
func expandRates(r []int64, phases int) []int64 {
	if len(r) == 1 && phases > 1 {
		out := make([]int64, phases)
		for i := range out {
			out[i] = r[0]
		}
		return out
	}
	return r
}
