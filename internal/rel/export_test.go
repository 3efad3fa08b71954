package rel

// Test hooks for the external rel_test package, whose tests drive the
// TPC-H queries (package tpch imports rel).
var (
	MemoHits   = memoHitC
	MemoMisses = memoMissC
	AppendNode = appendNode
)
