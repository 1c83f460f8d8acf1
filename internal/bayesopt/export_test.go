package bayesopt

// OptimizeAgainstExhaustive lets external tests, which may import the
// packages that build real problems, check the pruned scorer against the
// exhaustive reference.
var OptimizeAgainstExhaustive = optimizeAgainstExhaustive
