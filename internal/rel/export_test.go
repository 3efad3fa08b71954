package rel

// Test hooks for the external rel_test package, whose tests drive the
// TPC-H queries (package tpch imports rel).
var (
	MemoHits   = memoHitC
	MemoMisses = memoMissC
)

// AppendNode encodes a plan whole, as the prepared-plan memo keys it.
func AppendNode(b []byte, n Node) ([]byte, bool) { return appendNode(b, n, nil) }
