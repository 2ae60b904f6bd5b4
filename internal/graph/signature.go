package graph

// AttrHasher is the token sink used for stable sub-graph hashing. It is
// satisfied by cache.Hasher; declaring the interface here keeps the
// dependency pointing from cache to graph, not the other way around.
type AttrHasher interface {
	Str(ss ...string)
	Bool(b bool)
	Attrs(a Attrs)
}

// WriteNodeSignature writes a stable signature of id's local neighbourhood
// in g: the node's presence and attributes plus every incident edge (both
// directions for directed graphs) with its orientation, far endpoint and
// attributes. Attribute maps are hashed with sorted keys and edges in
// deterministic edge-insertion order, so two graphs that agree on this
// slice produce identical signatures regardless of how they were built up
// elsewhere.
//
// The signature deliberately covers only the one-hop slice: a change two
// hops away must be captured by the caller hashing additional tokens (as
// internal/compile does for collision-domain closures), keeping
// invalidation proportional to real dependencies.
func WriteNodeSignature(h AttrHasher, g *Graph, id ID) {
	h.Str("node", string(id))
	n := g.Node(id)
	if n == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.Attrs(n.Attrs())
	for _, e := range g.EdgesOf(id) {
		h.Str("edge", string(e.Other(id)))
		h.Bool(e.Src() == id)
		h.Attrs(e.Attrs())
	}
	if g.Directed() {
		for _, e := range g.InEdgesOf(id) {
			h.Str("in-edge", string(e.Src()))
			h.Attrs(e.Attrs())
		}
	}
}
