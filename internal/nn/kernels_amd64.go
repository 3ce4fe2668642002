package nn

// useAVX2 selects the AVX2 matmul kernels of kernels_amd64.s. It is fixed at
// package init: the CPU must report AVX2 and the OS must save YMM state
// across context switches (OSXSAVE set, XCR0 bits 1 and 2).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotTile4AVX2 computes the dot form of a 4-row block: for r < 4 and
// j < n8 (a multiple of 8), with s = Σₚ a[r·k+p]·b[p·n+j] summed in
// ascending p from +0, it stores dst[r·n+j] += s, or dst[r·n+j] = s when
// mode&tileStore is set. With mode&tileFirst (k ≥ 1) the sum starts from
// the first product instead of +0. Each YMM lane is one output element, and
// every product and sum is a separate, individually rounded instruction.
//
//go:noescape
func dotTile4AVX2(dst, a, b []float64, k, n, n8, mode int)

// bwdB4AVX2 is matmulBwdB's 4-row block over columns j < n4 (a multiple of
// 4): for each p with a[0..3, p] not all zero, it updates
// dB[p·n+j] += ((v0·g0[j] + v1·g1[j]) + v2·g2[j]) + v3·g3[j].
//
//go:noescape
func bwdB4AVX2(dB, a, g []float64, k, n, n4 int)
