package bench

import (
	"voodoo/internal/exec"
)

// nativeStats counts events for the hand-written ("implemented in C")
// microbenchmark variants with the same conventions as the kernel executor,
// so the device models price native loops and Voodoo kernels identically.
type nativeStats struct {
	frags []exec.FragStats
	rings exec.Lines
}

// frag opens a new counted loop (one fragment).
func (ns *nativeStats) frag(name string, extent int) *exec.FragStats {
	ns.frags = append(ns.frags, exec.FragStats{Name: "native:" + name, Extent: extent})
	ns.rings = exec.Lines{}
	return &ns.frags[len(ns.frags)-1]
}

func (ns *nativeStats) cur() *exec.FragStats { return &ns.frags[len(ns.frags)-1] }

// rand records a data-dependent access into buffer buf (identified by an
// arbitrary id) of the given total size, classified as the executor does.
func (ns *nativeStats) rand(buf int, idx int64, bufBytes int64) {
	ns.cur().CountAccess(ns.rings, buf, idx, bufBytes, 8)
}

func (ns *nativeStats) stats() *exec.Stats { return &exec.Stats{Frags: ns.frags} }

// ---- Figure 15: selection strategies -------------------------------------

// nativeSelectSumBranching: if (v1 <= sel) sum += v2.
func nativeSelectSumBranching(v1, v2 []float64, sel float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("branching", 1)
	var sum float64
	for i := range v1 {
		fs.Items++
		fs.SeqBytes += 8
		fs.FloatOps += 2 // between: two comparisons
		fs.Guards++
		if v1[i] < 0 || v1[i] > sel {
			continue
		}
		fs.GuardsPass++
		fs.SeqBytes += 8
		fs.FloatOps++
		sum += v2[i]
	}
	return sum, ns
}

// nativeSelectSumBranchFree: cursor-arithmetic position list (full-size
// buffer), then a second loop over the qualifying positions.
func nativeSelectSumBranchFree(v1, v2 []float64, sel float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("branchfree", 1)
	pos := make([]int64, len(v1))
	cursor := 0
	for i := range v1 {
		fs.Items++
		fs.SeqBytes += 8 + 8 // read v1, write position (unconditionally)
		fs.FloatOps += 2
		fs.IntOps += 2 // predicate to 0/1, cursor advance
		pos[cursor] = int64(i)
		if v1[i] >= 0 && v1[i] <= sel {
			cursor++
		}
	}
	fs2 := ns.frag("branchfree-pass2", 1)
	var sum float64
	for j := 0; j < cursor; j++ {
		fs2.Items++
		fs2.SeqBytes += 8 // read position
		ns.rand(1, pos[j], int64(len(v2))*8)
		fs2.FloatOps++
		sum += v2[pos[j]]
	}
	return sum, ns
}

// nativeSelectSumVectorized: the same cursor arithmetic, chunked into
// cache-sized position buffers processed immediately.
func nativeSelectSumVectorized(v1, v2 []float64, sel float64, chunk int) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("vectorized", (len(v1)+chunk-1)/chunk)
	fs.LocalBytes = int64(chunk) * 8
	buf := make([]int64, chunk)
	var sum float64
	for base := 0; base < len(v1); base += chunk {
		end := min(base+chunk, len(v1))
		cursor := 0
		for i := base; i < end; i++ {
			fs.Items++
			fs.SeqBytes += 8
			fs.FloatOps += 2
			fs.IntOps += 2
			fs.LocalOps++ // position write stays cache resident
			buf[cursor] = int64(i)
			if v1[i] >= 0 && v1[i] <= sel {
				cursor++
			}
		}
		for j := 0; j < cursor; j++ {
			fs.LocalOps++
			ns.rand(1, buf[j], int64(len(v2))*8)
			fs.FloatOps++
			sum += v2[buf[j]]
		}
	}
	return sum, ns
}

// ---- Figure 16: selective foreign-key joins -------------------------------

// nativeFKBranching: if (v < sel) sum += target[fk].
func nativeFKBranching(v []float64, fk []int64, target []float64, sel float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("fk-branching", 1)
	var sum float64
	for i := range v {
		fs.Items++
		fs.SeqBytes += 8
		fs.FloatOps++
		fs.Guards++
		if v[i] >= sel {
			continue
		}
		fs.GuardsPass++
		fs.SeqBytes += 8 // read fk
		ns.rand(1, fk[i], int64(len(target))*8)
		fs.FloatOps++
		sum += target[fk[i]]
	}
	return sum, ns
}

// nativeFKPredicatedAggregation: unconditional lookups, predicated sum.
func nativeFKPredicatedAggregation(v []float64, fk []int64, target []float64, sel float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("fk-predagg", 1)
	var sum float64
	for i := range v {
		fs.Items++
		fs.SeqBytes += 16 // v and fk
		fs.FloatOps += 3  // compare, multiply, add
		ns.rand(1, fk[i], int64(len(target))*8)
		p := 0.0
		if v[i] < sel {
			p = 1
		}
		sum += target[fk[i]] * p
	}
	return sum, ns
}

// nativeFKPredicatedLookups: the paper's novel variant — multiply the
// position by the predicate so misses hit the hot line at position zero.
func nativeFKPredicatedLookups(v []float64, fk []int64, target []float64, sel float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("fk-predlookup", 1)
	var sum float64
	for i := range v {
		fs.Items++
		fs.SeqBytes += 16
		fs.FloatOps += 2 // compare, final predication multiply
		fs.IntOps += 2   // position multiply and cast (integer ALU, the GPU's weakness)
		p := int64(0)
		if v[i] < sel {
			p = 1
		}
		pos := fk[i] * p
		ns.rand(1, pos, int64(len(target))*8)
		fs.FloatOps++
		sum += target[pos] * float64(p)
	}
	return sum, ns
}

// ---- Figure 14: layout transformation ------------------------------------

// nativeLayoutSingleLoop: one pass resolving both columns.
func nativeLayoutSingleLoop(pos []int64, c1, c2 []float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("layout-single", 1)
	var sum float64
	for i := range pos {
		fs.Items++
		fs.SeqBytes += 8
		ns.rand(1, pos[i], int64(len(c1))*8)
		ns.rand(2, pos[i], int64(len(c2))*8)
		fs.FloatOps += 2
		sum += c1[pos[i]] + c2[pos[i]]
	}
	return sum, ns
}

// nativeLayoutSeparateLoops: one pass per column (halved working set).
func nativeLayoutSeparateLoops(pos []int64, c1, c2 []float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	var sum float64
	fs := ns.frag("layout-separate-1", 1)
	for i := range pos {
		fs.Items++
		fs.SeqBytes += 8
		ns.rand(1, pos[i], int64(len(c1))*8)
		fs.FloatOps++
		sum += c1[pos[i]]
	}
	fs2 := ns.frag("layout-separate-2", 1)
	for i := range pos {
		fs2.Items++
		fs2.SeqBytes += 8
		ns.rand(2, pos[i], int64(len(c2))*8)
		fs2.FloatOps++
		sum += c2[pos[i]]
	}
	return sum, ns
}

// nativeLayoutTransform: interleave the columns row-wise first, then one
// pass with colocated fields (the second field is a near access).
func nativeLayoutTransform(pos []int64, c1, c2 []float64) (float64, *nativeStats) {
	ns := &nativeStats{}
	fs := ns.frag("layout-transform", 1)
	row := make([]float64, 2*len(c1))
	for i := range c1 {
		fs.Items++
		fs.SeqBytes += 2*8 + 2*8 // read both columns, write both fields
		row[2*i] = c1[i]
		row[2*i+1] = c2[i]
	}
	fs2 := ns.frag("layout-transform-lookup", 1)
	var sum float64
	for i := range pos {
		fs2.Items++
		fs2.SeqBytes += 8
		fs2.IntOps += 2 // 2*p and 2*p+1
		ns.rand(1, 2*pos[i], int64(len(row))*8)
		ns.rand(1, 2*pos[i]+1, int64(len(row))*8) // colocated: near
		fs2.FloatOps += 2
		sum += row[2*pos[i]] + row[2*pos[i]+1]
	}
	return sum, ns
}
