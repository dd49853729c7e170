package waitgraph

// BuildReference exposes the map-based reference Build to the external
// differential tests, which need scenario (and through it this package) to
// produce real record sets.
var BuildReference = buildReference
