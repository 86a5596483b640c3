// The benchmark is a module of its own so that it builds from its own
// build file; the module path keeps it inside the mcdp tree, which is
// what lets it import mcdp/internal/... through the replace below.
module mcdp/benchmark

go 1.22

require mcdp v0.0.0

replace mcdp => ../
