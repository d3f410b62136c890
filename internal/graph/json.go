package graph

import "encoding/json"

// JSON wire form of a graph, used by the lplserve HTTP API and anyone
// embedding a *Graph in a marshaled struct. Two encodings are accepted on
// the way in:
//
//	{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}   object form, 0-based
//	"p edge 4 4\ne 1 2\n..."                        string form: a whole
//	                                                DIMACS / edge-list
//	                                                document (see Read)
//
// Marshaling always produces the object form with edges in canonical
// (u < v, lexicographic) order, so equal graphs encode to equal bytes.
//
// Decoding runs on the streaming decoder (decode.go): the object form is
// scanned byte-by-byte into pooled flat edge buffers and assembled
// directly in CSR shape, with no intermediate [][]int and no per-edge
// allocations. decodeJSONReference (json_ref_test.go) is the retained
// encoding/json implementation; the two are pinned bit-identical (CSR
// arrays and fingerprint) on every accepted body by the
// decoder-equivalence tests and FuzzDecodeEquivalence.

// MarshalJSON encodes g in the object wire form. The edge list is the
// canonical one (normalized, u < v, sorted), so the encoding is
// deterministic for a given graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}{N: g.N(), Edges: g.Edges()})
}

// UnmarshalJSON decodes either wire form into g, replacing its contents.
// Object-form edges are 0-based and validated against n (self-loops are
// ErrSelfLoop, bad endpoints ErrEdgeRange, absurd vertex counts
// ErrVertexCount — all errors.Is-testable); the string form accepts both
// DIMACS and bare edge-list documents under the same rules.
func (g *Graph) UnmarshalJSON(data []byte) error {
	h, err := decodeJSONGraph(data)
	if err != nil {
		return err
	}
	g.adoptBuilt(h)
	return nil
}

// adoptBuilt moves a freshly decoded graph's contents into g, carrying
// over the already-built derived views (the decoders produce graphs born
// normalized with their CSR view set). h must not be used afterwards.
func (g *Graph) adoptBuilt(h *Graph) {
	g.adj = h.adj
	g.m = h.m
	g.normalized.Store(h.normalized.Load())
	g.csrView.Store(h.csrView.Load())
	g.fp.Store(h.fp.Load())
}
