package graph

import (
	"encoding/json"
	"fmt"
	"strings"
)

// jsonGraph is the object wire form of the reference decoder. Edges
// decode as [][]int, not [][2]int: encoding/json zero-fills or truncates
// fixed-size arrays, so the [2]int form would silently rewrite malformed
// tuples instead of rejecting them.
type jsonGraph struct {
	N     int     `json:"n"`
	Edges [][]int `json:"edges"`
}

// decodeJSONReference is the encoding/json implementation the streaming
// decoder replaced, retained as the equivalence oracle: every body it
// accepts must produce a bit-identical graph (CSR arrays and
// fingerprint) from decodeJSONGraph.
func decodeJSONReference(data []byte) (*Graph, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, `"`) {
		var doc string
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		return Read(strings.NewReader(doc))
	}
	var wire jsonGraph
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if err := checkVertexCount(int64(wire.N)); err != nil {
		return nil, err
	}
	h := New(wire.N)
	for i, e := range wire.Edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("graph: edge %d has %d endpoints, want exactly 2", i, len(e))
		}
		if err := validateEdge(i, int64(e[0]), int64(e[1]), wire.N); err != nil {
			return nil, err
		}
		h.AddEdge(e[0], e[1])
	}
	h.Normalize()
	return h, nil
}
