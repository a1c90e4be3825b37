package instance

import "encoding/json"

// ReflectMarshal is the encoder's test oracle: json.Marshal over the
// wire struct, trees copied out as Edges() lists, which is how
// MarshalJSON encoded a problem before EncodeWire.
func ReflectMarshal(p *Problem) ([]byte, error) {
	w := problemJSON{
		Kind:         p.Kind.String(),
		NumVertices:  p.NumVertices,
		NumSlots:     p.NumSlots,
		NumResources: p.NumResources,
		Demands:      p.Demands,
		Capacities:   p.Capacities,
	}
	for _, t := range p.Trees {
		w.TreeEdges = append(w.TreeEdges, t.Edges())
	}
	return json.Marshal(w)
}

// DecodeDemands is the demands parser, whose preallocation the codec
// tests bound.
var DecodeDemands = decodeDemands

// SmallTreeProblem is the 2-tree, 3-demand problem of the in-package
// tests.
var SmallTreeProblem = smallTreeProblem
